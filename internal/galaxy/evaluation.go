package galaxy

import (
	"fmt"
	"strconv"

	"gyan/internal/toolxml"
)

// The engine's reserved params, which every tool takes beside its wrapper's
// inputs: scale, the fraction of the dataset's nominal size a tool's cost
// model charges (a float in (0, 1]; the full dataset when unset), and
// KeyParam, a cluster's global job key (an unsigned integer).
const (
	scaleParam = "scale"
	KeyParam   = "cluster_key"
)

// check is the submit check: every param a job sets is a reserved one or one
// of the wrapper's non-data inputs, with a value of its type, and a dataset
// that reports a format (a workload.ReadSet is "fasta", a SquiggleSet
// "fast5") has the one the wrapper declares. It names the first bad param
// by key, reads only the spec RegisterTool derived, and allocates nothing
// unless it refuses; the caller prefixes the error.
func (b *ToolBinding) check(params map[string]string, dataset any) error {
	var badKey string
	var bad error
	for k, v := range params {
		if bad != nil && k > badKey {
			continue
		}
		var err error
		switch k {
		case scaleParam:
			if f, perr := strconv.ParseFloat(v, 64); perr != nil || !(f > 0 && f <= 1) {
				err = fmt.Errorf("param %s=%q is not a float in (0, 1]", k, v)
			}
		case KeyParam:
			if _, perr := strconv.ParseUint(v, 10, 64); perr != nil {
				err = fmt.Errorf("param %s=%q is not an unsigned integer", k, v)
			}
		default:
			err = b.spec.CheckParam(k, v)
		}
		if err != nil {
			badKey, bad = k, err
		}
	}
	if d, ok := dataset.(interface{ Format() string }); ok && bad == nil {
		bad = b.spec.CheckFormat(d.Format())
	}
	if bad == nil {
		return nil
	}
	return fmt.Errorf("tool %q: %w", b.XML.ID, bad)
}

// BuildParamDict is the equivalent of Galaxy's build_param_dict in
// evaluation.py: the bridge between the backend and the tool developer. It
// merges the wrapper's input defaults with the user's job parameters and
// injects GYAN's __galaxy_gpu_enabled__ key (Section IV-A: "we exposed the
// GALAXY_GPU_ENABLED environment variable to the tool wrapper file with the
// insertion of a dictionary entry"). The user's params were checked against
// the wrapper at submit, so every value in the dict reads back typed.
func BuildParamDict(tool *toolxml.Tool, userParams map[string]string, gpuEnabled bool) (map[string]string, error) {
	if tool == nil {
		return nil, fmt.Errorf("galaxy: nil tool")
	}
	dict := make(map[string]string, len(tool.Inputs.Params)+len(userParams)+1)
	for _, p := range tool.Inputs.Params {
		dict[p.Name] = p.Default()
	}
	for k, v := range userParams {
		dict[k] = v
	}
	dict["__galaxy_gpu_enabled__"] = strconv.FormatBool(gpuEnabled)
	return dict, nil
}

// intParam and scaleOr are the executors' typed reads of a checked dict;
// scaleOr answers def when the job set no scale. The submit check admits
// only values that parse and a wrapper registers only with defaults that
// do, so a value that does not is an engine bug, and they panic.
func intParam(dict map[string]string, name string) int {
	n, err := strconv.Atoi(dict[name])
	if err != nil {
		panic(fmt.Sprintf("galaxy: unchecked param %s=%q", name, dict[name]))
	}
	return n
}

func scaleOr(dict map[string]string, def float64) float64 {
	v, ok := dict[scaleParam]
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		panic(fmt.Sprintf("galaxy: unchecked param %s=%q", scaleParam, v))
	}
	return f
}
