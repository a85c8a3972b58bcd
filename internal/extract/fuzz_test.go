package extract

import (
	"reflect"
	"strings"
	"testing"
)

// hostileForms are robustness cases modelled on what open-web extraction
// meets (OPAL's layout-bound labels, abused fieldsets). Each must extract
// one valid tree with one field per text input and select, whatever labels
// they get, and every select's options as its instances; selects lists
// the instance sets of the fields that have any, in field order.
var hostileForms = []struct {
	name    string
	html    string
	fields  int
	selects [][]string
}{
	{
		name: "fieldset around the whole form",
		html: `<form id=search><fieldset><legend>Search flights</legend>
			<table><tr><td>From</td><td><input type=text name=from></td></tr>
			<tr><td>To</td><td><input type=text name=to></td></tr></table>
			<fieldset><legend>Passengers</legend>Adults<select name=adults><option>1<option>2</select>
			Children<select name=kids><option>0<option>1</select></fieldset>
			<input type=submit value=Go></fieldset></form>`,
		fields:  4,
		selects: [][]string{{"1", "2"}, {"0", "1"}},
	},
	{
		name: "nested fieldsets without legends",
		html: `<form><fieldset><fieldset><fieldset>Make<input name=make>
			</fieldset>Model<input name=model></fieldset><fieldset></fieldset></fieldset>
			<fieldset><fieldset></fieldset></fieldset>Year<input name=year></form>`,
		fields: 3,
	},
	{
		name: "fieldsets nested past the tree depth limit",
		html: "<form>" + strings.Repeat("<fieldset><legend>Deep</legend>", 80) +
			"Keyword<input name=q>" + strings.Repeat("<input name=x>", 2) +
			strings.Repeat("</fieldset>", 80) + "City<input name=city></form>",
		fields: 4,
	},
	{
		name: "fieldsets left open",
		html: `<form><fieldset><legend>Where</legend>From<input name=a>
			<fieldset><legend>Empty and never closed</legend><fieldset></form>`,
		fields: 1,
	},
	{
		name: "labels in table cells away from their inputs",
		html: `<form><table>
			<tr><td>Departure city</td><td>Arrival city</td></tr>
			<tr><td><input name=dep></td><td><input name=arr></td></tr>
			<tr><td colspan=2><label>Class</label></td></tr>
			<tr><td></td><td><select name=cls><option>Economy<option>Business</select></td></tr>
			</table></form>`,
		fields:  3,
		selects: [][]string{{"Economy", "Business"}},
	},
	{
		name: "label for a missing or duplicated id",
		html: `<form><label for=ghost>Ghost field</label>
			<input id=real name=real><label for=dup>First</label><label for=dup>Second</label>
			<input id=dup name=a><input id=dup name=b><label for="">Empty target</label><input name=c>
			<label for=real>Late label</label></form>`,
		fields: 4,
	},
	{
		name: "options outside any select",
		html: `<form><option>Stray</option><fieldset><legend>Size</legend>
			<option value=s>Small<option value=l>Large</fieldset>Color<select name=color>
			<option>Red</select><option>After</option><input name=q></form>`,
		fields:  2,
		selects: [][]string{{"Red"}},
	},
	{
		name: "legends and labels out of place",
		html: `<form><legend>Orphan legend</legend></fieldset></label>
			<label>Outer<fieldset><legend>Inside a label</legend><input name=x></fieldset></label>
			<fieldset><input name=y><legend>Late legend</legend></fieldset></form>`,
		fields: 2,
	},
}

// TestHostileForms extracts every hostile form.
func TestHostileForms(t *testing.T) {
	for _, c := range hostileForms {
		trees := Forms(c.html, "hostile")
		if len(trees) != 1 {
			t.Fatalf("%s: %d forms extracted, want 1", c.name, len(trees))
		}
		if err := trees[0].Validate(); err != nil {
			t.Errorf("%s: extracted tree invalid: %v", c.name, err)
		}
		leaves := trees[0].Leaves()
		var selects [][]string
		for _, l := range leaves {
			if len(l.Instances) > 0 {
				selects = append(selects, l.Instances)
			}
		}
		if len(leaves) != c.fields || !reflect.DeepEqual(selects, c.selects) {
			t.Errorf("%s: %d fields with instances %q, want %d with %q", c.name, len(leaves), selects, c.fields, c.selects)
		}
	}
}

// FuzzForms throws arbitrary bytes at the HTML tokenizer and form
// extractor: no input may panic, hang, or produce an invalid schema tree.
func FuzzForms(f *testing.F) {
	for _, seed := range []string{
		airlineForm,
		"<form><input type=text name=a></form>",
		"<form><fieldset><legend>G</legend><select><option>A</select></fieldset>",
		"<form><label>L<input></label></form>",
		"<!--<form>--><form></form>",
		"<script><form></script>",
		"<form", "</form>", "<<>>", "&&&&", "<a b=c d='e\" f>",
	} {
		f.Add(seed)
	}
	for _, c := range hostileForms {
		f.Add(c.html)
	}
	f.Fuzz(func(t *testing.T, html string) {
		for _, tree := range Forms(html, "fuzz") {
			if err := tree.Validate(); err != nil {
				t.Errorf("extracted tree invalid for %q: %v", html, err)
			}
		}
	})
}
