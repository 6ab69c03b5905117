package toolxml

import (
	"strings"
	"testing"
)

// Native Go fuzzers for the wrapper parser. The seed corpus is the paper's
// own wrappers plus hand-written malformed compute requirements; the
// properties under fuzz are "no panic anywhere downstream of Parse" and
// "malformed <requirement type="compute"> inputs surface as errors, never
// as garbage device IDs".

func FuzzParseTool(f *testing.F) {
	f.Add(RaconToolXML)
	f.Add(BonitoToolXML)
	f.Add(PaswasToolXML)
	f.Add(`<tool id="t"><requirements><requirement type="compute" version="0,1">gpu</requirement></requirements></tool>`)
	f.Add(`<tool id="t"><requirements><requirement type="compute" version="-1">gpu</requirement></requirements></tool>`)
	f.Add(`<tool id="t"><requirements><requirement type="compute" version="0,,2">gpu</requirement></requirements></tool>`)
	f.Add(`<tool id="t"><requirements><requirement type="compute" version="99999999999999999999">gpu</requirement></requirements></tool>`)
	f.Add(`<tool id="t"><requirements><requirement type="COMPUTE" version=" 1 , 2 ">GPU</requirement></requirements></tool>`)
	f.Add(`<tool></tool>`)
	f.Add(`<tool id="t"><command>#if $x == "1"
racon -t $threads
#end if</command></tool>`)

	f.Fuzz(func(t *testing.T, doc string) {
		tool, err := Parse(doc)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		if tool.ID == "" {
			t.Fatalf("Parse accepted a tool without an id: %q", doc)
		}
		// Every downstream consumer of a parsed wrapper must be total.
		tool.RequiresGPU()
		tool.ContainerFor("docker")
		tool.ContainerFor("singularity")
		if req, ok := tool.GPURequirement(); ok {
			ids, err := req.GPUIDs()
			if err == nil {
				for _, id := range ids {
					if id < 0 {
						t.Fatalf("GPUIDs returned negative id %d from version %q without error",
							id, req.Version)
					}
				}
			} else if !strings.Contains(err.Error(), "toolxml:") {
				t.Fatalf("GPUIDs error lost its package prefix: %v", err)
			}
		}
	})
}

func FuzzExpandMacros(f *testing.F) {
	f.Add(RaconToolXML, RaconMacrosXML)
	f.Add(RaconToolXML, `<macros></macros>`)
	f.Add(`<tool id="t"><macros><import>macros.xml</import></macros><requirements><expand macro="nope"/></requirements></tool>`, RaconMacrosXML)
	f.Add(`<tool id="t"><requirements><expand macro="requirements"/></requirements></tool>`, RaconMacrosXML)
	f.Add(`<tool id="t"><macros><import>other.xml</import></macros><requirements><expand macro="requirements"/></requirements></tool>`,
		`<macros><xml name="requirements"><requirement type="compute" version="-3">gpu</requirement></xml></macros>`)

	f.Fuzz(func(t *testing.T, toolDoc, macroDoc string) {
		tool, err := Parse(toolDoc)
		if err != nil {
			return
		}
		mf, err := ParseMacros(macroDoc)
		if err != nil {
			return
		}
		files := map[string]*MacroFile{"macros.xml": mf}
		if err := tool.ExpandMacros(files); err != nil {
			return
		}
		// Successful expansion consumes the expand references and is
		// idempotent: a second call must change nothing.
		if len(tool.Requirements.Expand) != 0 {
			t.Fatalf("expansion left %d unconsumed expand refs", len(tool.Requirements.Expand))
		}
		reqs, containers := len(tool.Requirements.Items), len(tool.Requirements.Containers)
		if err := tool.ExpandMacros(files); err != nil {
			t.Fatalf("second expansion errored: %v", err)
		}
		if len(tool.Requirements.Items) != reqs || len(tool.Requirements.Containers) != containers {
			t.Fatalf("expansion not idempotent: %d->%d requirements, %d->%d containers",
				reqs, len(tool.Requirements.Items), containers, len(tool.Requirements.Containers))
		}
		// Malformed compute requirements pulled in from macros must error,
		// not crash or yield nonsense.
		if req, ok := tool.GPURequirement(); ok {
			if ids, err := req.GPUIDs(); err == nil {
				for _, id := range ids {
					if id < 0 {
						t.Fatalf("macro-expanded GPU requirement yielded negative id %d", id)
					}
				}
			}
		}
	})
}
