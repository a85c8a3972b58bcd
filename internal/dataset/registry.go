package dataset

import (
	"fmt"
	"strings"
)

// Domains returns the specifications of the seven evaluation domains, in
// Table 6's order.
func Domains() []*DomainSpec {
	return []*DomainSpec{
		airlineSpec(),
		autoSpec(),
		bookSpec(),
		jobSpec(),
		realEstateSpec(),
		carRentalSpec(),
		hotelsSpec(),
	}
}

// ByName returns the named domain's specification (case-insensitive,
// spaces optional: "realestate" matches "Real Estate"), the one whose Key
// equals the name's.
func ByName(name string) (*DomainSpec, error) {
	key := Key(name)
	for _, d := range Domains() {
		if Key(d.Name) == key {
			return d, nil
		}
	}
	return nil, fmt.Errorf("dataset: unknown domain %q", name)
}

// Key returns the form of a domain name ByName matches: lower case,
// without spaces.
func Key(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, " ", ""))
}
