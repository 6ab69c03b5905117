package toolxml

import (
	"fmt"
	"math"
	"strconv"
)

// Spec is a wrapper's <inputs>, typed: the params a job may set (integer
// within its declared min and max, text, or select over its options) and
// the format each data input declares. CheckParam and CheckFormat do no XML
// work and allocate only the error they return, which names no tool.
type Spec struct {
	params  map[string]Param
	formats []string
}

// Spec derives the wrapper's param spec, once per wrapper. It refuses a type
// no wrapper uses, an unnamed or repeated param, and a default that fails
// its own param's check (an unparsable bound or a select without options
// among them), so a dict of the wrapper's defaults always reads back typed.
func (t *Tool) Spec() (*Spec, error) {
	s := &Spec{params: make(map[string]Param, len(t.Inputs.Params))}
	for _, p := range t.Inputs.Params {
		var err error
		switch _, dup := s.params[p.Name]; {
		case dup || p.Name == "":
			err = fmt.Errorf("name is empty or repeated")
		case p.Type == "data":
			if p.Format != "" {
				s.formats = append(s.formats, p.Format)
			}
		case p.Type == "integer" || p.Type == "text" || p.Type == "select":
			err = check(p, p.Default())
		default:
			err = fmt.Errorf("unsupported type %q", p.Type)
		}
		if err != nil {
			return nil, fmt.Errorf("toolxml: %s: param %q: %w", t.ID, p.Name, err)
		}
		s.params[p.Name] = p
	}
	return s, nil
}

// CheckParam checks one job param: the name must be a non-data input and the
// value must parse as its type, inside its bounds or among its options.
func (s *Spec) CheckParam(name, value string) error {
	p, ok := s.params[name]
	if !ok {
		return fmt.Errorf("unknown param %q", name)
	}
	return check(p, value)
}

func check(p Param, value string) error {
	switch p.Type {
	case "integer":
		n, err := strconv.Atoi(value)
		if err != nil {
			return fmt.Errorf("param %s=%q is not an integer", p.Name, value)
		}
		if lo, err := bound(p.Min, math.MinInt); err != nil || n < lo {
			return fmt.Errorf("param %s=%d violates its min %q", p.Name, n, p.Min)
		}
		if hi, err := bound(p.Max, math.MaxInt); err != nil || n > hi {
			return fmt.Errorf("param %s=%d violates its max %q", p.Name, n, p.Max)
		}
	case "select":
		for _, o := range p.Options {
			if o.Value == value {
				return nil
			}
		}
		var options []string
		for _, o := range p.Options {
			options = append(options, o.Value)
		}
		return fmt.Errorf("param %s=%q is not one of %q", p.Name, value, options)
	case "data":
		return fmt.Errorf("param %s is a data input: the job's dataset fills it", p.Name)
	}
	return nil
}

// bound parses an integer's min or max attribute; an absent one is def.
func bound(attr string, def int) (int, error) {
	if attr == "" {
		return def, nil
	}
	return strconv.Atoi(attr)
}

// CheckFormat refuses a dataset whose format differs from one a data input
// declares. A dataset that declares no format ("") is not checked.
func (s *Spec) CheckFormat(format string) error {
	for _, f := range s.formats {
		if format != "" && f != format {
			return fmt.Errorf("dataset format %q, but the wrapper's data input takes %q", format, f)
		}
	}
	return nil
}
