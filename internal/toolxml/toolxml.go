// Package toolxml parses Galaxy tool configuration ("wrapper") files — the
// XML documents that describe a tool to Galaxy (paper, Section II-A) — plus
// the macros.xml import mechanism and the Cheetah-style command templates
// GYAN's Code 1-3 listings rely on.
//
// GYAN's Challenge I is solved here: the parser understands the new
// <requirement type="compute">gpu</requirement> tag, including the
// overloaded version attribute that carries the requested GPU minor IDs for
// multi-GPU mapping (paper, Section IV-C: "the 'version' tag corresponds to
// the GPU minor ID(s) in our design").
package toolxml

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
)

// Requirement is one <requirement> entry of a tool wrapper.
type Requirement struct {
	// Type is the requirement class: "package" for software dependencies,
	// "compute" for GYAN's hardware requirement.
	Type string `xml:"type,attr"`
	// Version carries the package version — or, for compute requirements,
	// the comma-separated GPU minor IDs the tool requests.
	Version string `xml:"version,attr"`
	// Name is the requirement value text ("racon", "gpu", "cpu").
	Name string `xml:",chardata"`
}

// IsGPU reports whether this is GYAN's GPU compute requirement.
func (r Requirement) IsGPU() bool {
	return strings.EqualFold(r.Type, "compute") && strings.EqualFold(strings.TrimSpace(r.Name), "gpu")
}

// GPUIDs returns the GPU minor IDs requested through the version attribute,
// or nil when the tool expressed no device preference.
func (r Requirement) GPUIDs() ([]int, error) {
	if !r.IsGPU() || strings.TrimSpace(r.Version) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(r.Version, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("toolxml: bad GPU id %q in version attribute: %w", part, err)
		}
		if id < 0 {
			return nil, fmt.Errorf("toolxml: negative GPU id %d", id)
		}
		out = append(out, id)
	}
	return out, nil
}

// Container is a <container> entry inside <requirements>.
type Container struct {
	// Type is "docker" or "singularity".
	Type string `xml:"type,attr"`
	// Image is the container image reference.
	Image string `xml:",chardata"`
}

// Param is one <param> of the tool's <inputs> section. Min and Max bound an
// integer, Options list a select's choices, and Format is the datatype a
// data input declares.
type Param struct {
	Name    string `xml:"name,attr"`
	Type    string `xml:"type,attr"`
	Value   string `xml:"value,attr"`
	Label   string `xml:"label,attr"`
	Min     string `xml:"min,attr"`
	Max     string `xml:"max,attr"`
	Format  string `xml:"format,attr"`
	Options []struct {
		Value string `xml:"value,attr"`
	} `xml:"option"`
}

// Default is the value a job that does not set the param gets: the value
// attribute, or for a select without one its first option, as in Galaxy.
func (p Param) Default() string {
	if p.Type == "select" && p.Value == "" && len(p.Options) > 0 {
		return p.Options[0].Value
	}
	return p.Value
}

// Tool is a parsed Galaxy tool wrapper.
type Tool struct {
	XMLName      xml.Name      `xml:"tool"`
	ID           string        `xml:"id,attr"`
	Name         string        `xml:"name,attr"`
	Version      string        `xml:"version,attr"`
	Description  string        `xml:"description"`
	Macros       *MacroImports `xml:"macros"`
	Requirements struct {
		Expand     []Expand      `xml:"expand"`
		Items      []Requirement `xml:"requirement"`
		Containers []Container   `xml:"container"`
	} `xml:"requirements"`
	Command struct {
		Text string `xml:",chardata"`
	} `xml:"command"`
	Inputs struct {
		Params []Param `xml:"param"`
	} `xml:"inputs"`
	Outputs struct {
		Data []struct {
			Name   string `xml:"name,attr"`
			Format string `xml:"format,attr"`
		} `xml:"data"`
	} `xml:"outputs"`
}

// MacroImports is the <macros><import>...</import></macros> block.
type MacroImports struct {
	Imports []string `xml:"import"`
}

// Expand is an <expand macro="..."/> reference.
type Expand struct {
	Macro string `xml:"macro,attr"`
}

// Parse decodes a tool wrapper document. Call ExpandMacros afterwards if the
// tool imports macro files.
func Parse(doc string) (*Tool, error) {
	var t Tool
	if err := xml.Unmarshal([]byte(doc), &t); err != nil {
		return nil, fmt.Errorf("toolxml: parse tool: %w", err)
	}
	if t.ID == "" {
		return nil, fmt.Errorf("toolxml: tool without id attribute")
	}
	return &t, nil
}

// GPURequirement returns the tool's GPU compute requirement, if any.
func (t *Tool) GPURequirement() (Requirement, bool) {
	for _, r := range t.Requirements.Items {
		if r.IsGPU() {
			return r, true
		}
	}
	return Requirement{}, false
}

// RequiresGPU reports whether the wrapper declares the GPU compute
// requirement.
func (t *Tool) RequiresGPU() bool {
	_, ok := t.GPURequirement()
	return ok
}

// ContainerFor returns the tool's container image of the given runtime type
// ("docker" or "singularity"), if declared.
func (t *Tool) ContainerFor(runtime string) (Container, bool) {
	for _, c := range t.Requirements.Containers {
		if strings.EqualFold(c.Type, runtime) {
			c.Image = strings.TrimSpace(c.Image)
			return c, true
		}
	}
	return Container{}, false
}
