package extract

import (
	"strings"

	"qilabel/internal/schema"
)

// Forms extracts one schema tree per <form> element found in the HTML
// page. Interpretation follows the structural conventions of query
// interfaces:
//
//   - <fieldset> elements become internal (group) nodes, titled by their
//     <legend>; a fieldset left without fields, or nested deeper than a
//     schema tree may be (schema.MaxDepth), is no group of its own;
//   - <input> (textual types), <select> and <textarea> elements become
//     fields; <select> options become the field's instances;
//   - field labels come from <label for=...> associations, from wrapping
//     <label> elements, or from the text immediately preceding the
//     control;
//   - hidden, submit, button, reset and image inputs are interface
//     chrome, not query fields, and are skipped; radio buttons and
//     checkboxes sharing a name collapse into one field whose instances
//     are their values.
//
// The iface argument names the interfaces: one form yields a tree named
// iface, several yield iface#1, iface#2, ... (or the form's id/name when
// present).
func Forms(html string, iface string) []*schema.Tree {
	tokens := tokenize(html)
	var trees []*schema.Tree
	for idx := 0; idx < len(tokens); idx++ {
		if tokens[idx].kind == tokenStartTag && tokens[idx].name == "form" {
			tree, next := parseForm(tokens, idx, iface, len(trees))
			trees = append(trees, tree)
			idx = next
		}
	}
	return trees
}

// parser state while walking one form's tokens.
type formParser struct {
	labelFor map[string]string // control id -> label text
	// pending is the most recent label text not yet bound to a control:
	// either an open <label> without for=, or trailing text.
	pending string
	// openLabelFor holds the for= target of the currently open label.
	openLabelFor string
	inLabel      bool
	radios       map[string]*schema.Node // radio/checkbox name -> field
}

func parseForm(tokens []token, start int, iface string, nth int) (*schema.Tree, int) {
	name := tokens[start].attrs["id"]
	if name == "" {
		name = tokens[start].attrs["name"]
	}
	if name == "" {
		name = iface
		if nth > 0 {
			name = iface + "#" + itoa(nth+1)
		}
	}
	tree := schema.NewTree(name)
	p := &formParser{
		labelFor: map[string]string{},
		radios:   map[string]*schema.Node{},
	}
	// First pass: collect <label for=...> texts anywhere in the form.
	depth := 0
	end := len(tokens)
	for i := start; i < len(tokens); i++ {
		t := tokens[i]
		if t.kind == tokenStartTag && t.name == "form" {
			depth++
		}
		if t.kind == tokenEndTag && t.name == "form" {
			depth--
			if depth == 0 {
				end = i
				break
			}
		}
		if t.kind == tokenStartTag && t.name == "label" && t.attrs["for"] != "" {
			p.labelFor[t.attrs["for"]] = collectText(tokens, i+1, "label")
		}
	}
	// Second pass: build the tree.
	stack := []*schema.Node{tree.Root}
	flat := 0 // open fieldsets nested too deep to be groups
	closeFieldset := func() {
		if flat > 0 {
			flat--
			return
		}
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// An empty fieldset is layout chrome; drop it here, before it
		// becomes indistinguishable from an unlabeled field (an empty group
		// is a leaf by structure). While it was open, it was the last child
		// of the node below it.
		if len(node.Children) == 0 {
			top := stack[len(stack)-1]
			top.Children = top.Children[:len(top.Children)-1]
		}
	}
	expectLegend := false
	for i := start + 1; i < end; i++ {
		t := tokens[i]
		switch t.kind {
		case tokenText:
			text := strings.TrimSpace(t.text)
			if text == "" {
				break
			}
			if p.inLabel {
				if p.openLabelFor == "" {
					p.pending = text
				}
			} else {
				p.pending = text
			}
		case tokenStartTag, tokenSelfClosing:
			// A legend must be the first element of its fieldset: any other
			// tag means no legend is coming.
			if t.name != "fieldset" && t.name != "legend" {
				expectLegend = false
			}
			switch t.name {
			case "fieldset":
				// A field sits at depth len(stack): a group opened at
				// the limit would hold its fields past schema.MaxDepth.
				if len(stack) == schema.MaxDepth {
					flat++
				} else {
					node := schema.NewGroup("")
					top := stack[len(stack)-1]
					top.Children = append(top.Children, node)
					stack = append(stack, node)
				}
				expectLegend = true
				p.pending = ""
			case "legend":
				if len(stack) > 1 && flat == 0 {
					stack[len(stack)-1].Label = collectText(tokens, i+1, "legend")
				}
				// Text between the fieldset and its legend labels no field;
				// without a legend it labels the next one.
				if expectLegend {
					p.pending = ""
				}
				expectLegend = false
			case "label":
				p.inLabel = true
				p.openLabelFor = t.attrs["for"]
			case "input":
				p.handleInput(t, stack[len(stack)-1])
			case "select":
				field, skip := parseSelect(tokens, i, end)
				p.attachLabel(field, t)
				top := stack[len(stack)-1]
				top.Children = append(top.Children, field)
				i = skip
			case "textarea":
				field := schema.NewField("", "")
				p.attachLabel(field, t)
				top := stack[len(stack)-1]
				top.Children = append(top.Children, field)
			case "option":
				// An option outside any select (parseSelect consumes the
				// ones inside), such as a datalist's, is skipped with its
				// text up to the next tag, so that text labels no control.
				for i+1 < end && tokens[i+1].kind == tokenText {
					i++
				}
			}
		case tokenEndTag:
			switch t.name {
			case "fieldset":
				if len(stack) > 1 {
					closeFieldset()
				}
				p.pending = ""
				expectLegend = false
			case "label":
				p.inLabel = false
				p.openLabelFor = ""
			}
		}
	}
	// The form closes the fieldsets left open.
	for len(stack) > 1 {
		closeFieldset()
	}
	return tree, end
}

// textualInputTypes are the input types that constitute query fields.
var textualInputTypes = map[string]bool{
	"": true, "text": true, "search": true, "number": true, "date": true,
	"email": true, "tel": true, "url": true, "month": true, "time": true,
	"week": true, "datetime-local": true,
}

func (p *formParser) handleInput(t token, parent *schema.Node) {
	typ := strings.ToLower(t.attrs["type"])
	switch typ {
	case "radio", "checkbox":
		name := t.attrs["name"]
		value := t.attrs["value"]
		if f, ok := p.radios[name]; ok && name != "" {
			if value != "" {
				f.Instances = append(f.Instances, value)
			}
			p.pending = ""
			return
		}
		field := schema.NewField("", "")
		if value != "" {
			field.Instances = append(field.Instances, value)
		}
		p.attachLabel(field, t)
		if name != "" {
			p.radios[name] = field
		}
		parent.Children = append(parent.Children, field)
	default:
		if !textualInputTypes[typ] {
			return // hidden/submit/button/reset/image: chrome
		}
		field := schema.NewField("", "")
		p.attachLabel(field, t)
		parent.Children = append(parent.Children, field)
	}
}

// attachLabel resolves the field's label: an explicit <label for=id>, the
// enclosing <label>, or the text immediately preceding the control.
func (p *formParser) attachLabel(field *schema.Node, t token) {
	if id := t.attrs["id"]; id != "" {
		if l, ok := p.labelFor[id]; ok {
			field.Label = l
			p.pending = ""
			return
		}
	}
	if p.pending != "" {
		field.Label = strings.TrimRight(strings.TrimSpace(p.pending), ":")
		p.pending = ""
	}
}

// parseSelect consumes a <select> element, returning the field with its
// option texts as instances and the index of the closing token.
func parseSelect(tokens []token, start, end int) (*schema.Node, int) {
	field := schema.NewField("", "")
	i := start + 1
	for ; i < end; i++ {
		t := tokens[i]
		if t.kind == tokenEndTag && t.name == "select" {
			break
		}
		if t.kind == tokenStartTag && t.name == "option" {
			text := optionText(tokens, i+1, end)
			if text == "" {
				text = strings.TrimSpace(t.attrs["value"])
			}
			if text != "" && !isPlaceholderOption(text) {
				field.Instances = append(field.Instances, text)
			}
		}
	}
	return field, i
}

// isPlaceholderOption filters "Select one", "--", "Any" style placeholder
// options out of the instance set.
func isPlaceholderOption(text string) bool {
	low := strings.ToLower(strings.Trim(text, "-– ."))
	switch low {
	case "", "select", "select one", "choose", "choose one", "any", "all", "please select":
		return true
	}
	return strings.HasPrefix(low, "select ") || strings.HasPrefix(low, "choose ")
}

// optionText is the text of the option whose content starts at from: up
// to its end tag or, since HTML lets an option omit it, to the next option
// or option group or the end of the select.
func optionText(tokens []token, from, end int) string {
	var b strings.Builder
	for _, t := range tokens[from:end] {
		if t.kind == tokenText {
			b.WriteString(t.text)
		} else if t.name == "option" || t.name == "optgroup" || t.name == "select" && t.kind == tokenEndTag {
			break
		}
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

// collectText concatenates the text tokens until the end tag of element.
func collectText(tokens []token, from int, element string) string {
	var b strings.Builder
	for i := from; i < len(tokens); i++ {
		t := tokens[i]
		if t.kind == tokenEndTag && t.name == element {
			break
		}
		if t.kind == tokenText {
			b.WriteString(t.text)
		}
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
