// Package container simulates the container runtimes Galaxy launches tools
// through: Docker (with NVIDIA-Docker GPU injection) and Singularity.
//
// GYAN's Challenge III lives at the command-assembly layer: Galaxy builds a
// `docker run ...` / `singularity exec ...` command line for each
// containerized job, and GYAN's patch appends "--gpus all" (Docker) or
// "--nv" (Singularity) when GALAXY_GPU_ENABLED is true — exporting
// CUDA_VISIBLE_DEVICES rather than using "--gpus <id>" because, as the
// paper notes, per-device exposure "did not work as intended". This package
// reproduces the command assembly verbatim, plus image pulls with cold-start
// costs and the Singularity 3.1 restriction that bind mounts lose their
// rw/ro suffix when --nv is used.
package container

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"gyan/internal/faults"
)

// Runtime names.
const (
	Docker      = "docker"
	Singularity = "singularity"
)

// Image is a container image known to the registry.
type Image struct {
	// Ref is the image reference, e.g. "gulsumgudukbay/racon_dockerfile".
	Ref string
	// SizeBytes is the compressed image size, which determines pull time.
	SizeBytes int64
}

// Registry simulates an image registry plus the local image cache. The zero
// value is not usable; construct with NewRegistry.
type Registry struct {
	images map[string]Image
	cached map[string]bool
	// pullBandwidth is the effective download rate in bytes/second.
	pullBandwidth float64
}

// NewRegistry returns a registry pre-populated with the images the paper's
// evaluation uses.
func NewRegistry() *Registry {
	r := &Registry{
		images:        make(map[string]Image),
		cached:        make(map[string]bool),
		pullBandwidth: 100e6,
	}
	r.Add(Image{Ref: "gulsumgudukbay/racon_dockerfile", SizeBytes: 1200 << 20})
	r.Add(Image{Ref: "docker://gulsumgudukbay/racon_dockerfile", SizeBytes: 1200 << 20})
	r.Add(Image{Ref: "nanoporetech/bonito", SizeBytes: 2800 << 20})
	return r
}

// Add registers an image.
func (r *Registry) Add(img Image) { r.images[img.Ref] = img }

// Pull fetches an image, returning the virtual time the pull costs. Cached
// images cost nothing, which is why only the first containerized job of a
// kind pays the pull.
func (r *Registry) Pull(ref string) (Image, time.Duration, error) {
	img, ok := r.images[ref]
	if !ok {
		return Image{}, 0, fmt.Errorf("container: image %q not found in registry or docker hub", ref)
	}
	if r.cached[ref] {
		return img, 0, nil
	}
	r.cached[ref] = true
	return img, time.Duration(float64(img.SizeBytes) / r.pullBandwidth * float64(time.Second)), nil
}

// VolumeMount is a host path bound into the container.
type VolumeMount struct {
	Host, Container string
	// Mode is "rw" or "ro".
	Mode string
}

// LaunchSpec describes one container launch.
type LaunchSpec struct {
	// Runtime is Docker or Singularity.
	Runtime string
	// Image is the image reference from the tool wrapper.
	Image string
	// Command is the tool command rendered from the wrapper template.
	Command string
	// Env is the environment exported into the container; GYAN sets
	// GALAXY_GPU_ENABLED and CUDA_VISIBLE_DEVICES here.
	Env map[string]string
	// Volumes are the data binds Galaxy adds for job inputs/outputs.
	Volumes []VolumeMount
	// GPU requests device injection (--gpus all / --nv).
	GPU bool

	// JobID, ToolID, Attempt and At carry the dispatching job's identity
	// into the engine's fault-injection seam (see Engine.Faults); zero
	// values are fine when no fault plan is armed.
	JobID   int
	ToolID  string
	Attempt int
	At      time.Duration
}

// Validate reports spec errors.
func (s LaunchSpec) Validate() error {
	switch {
	case s.Runtime != Docker && s.Runtime != Singularity:
		return fmt.Errorf("container: unknown runtime %q", s.Runtime)
	case s.Image == "":
		return fmt.Errorf("container: empty image reference")
	case s.Command == "":
		return fmt.Errorf("container: empty command")
	}
	for _, v := range s.Volumes {
		if v.Mode != "rw" && v.Mode != "ro" {
			return fmt.Errorf("container: volume %s mode %q (want rw or ro)", v.Host, v.Mode)
		}
	}
	return nil
}

// AssembleCommand builds the container launch command line the way Galaxy's
// (GYAN-patched) container interface does. This is the artifact the paper's
// Section IV-B describes; tests assert its exact shape.
func AssembleCommand(s LaunchSpec) ([]string, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var parts []string
	switch s.Runtime {
	case Docker:
		parts = []string{"docker", "run", "--rm"}
		for _, k := range sortedKeys(s.Env) {
			parts = append(parts, "-e", k+"="+s.Env[k])
		}
		for _, v := range s.Volumes {
			parts = append(parts, "-v", fmt.Sprintf("%s:%s:%s", v.Host, v.Container, v.Mode))
		}
		if s.GPU {
			// GYAN: command_part.append("--gpus all"), gated on
			// GALAXY_GPU_ENABLED by the caller.
			parts = append(parts, "--gpus", "all")
		}
		parts = append(parts, s.Image)
	case Singularity:
		parts = []string{"singularity", "exec"}
		for _, k := range sortedKeys(s.Env) {
			parts = append(parts, "--env", k+"="+s.Env[k])
		}
		for _, v := range s.Volumes {
			if s.GPU {
				// Singularity 3.1 rejects the rw/ro suffix together
				// with --nv; GYAN strips it (Section IV-B).
				parts = append(parts, "-B", fmt.Sprintf("%s:%s", v.Host, v.Container))
			} else {
				parts = append(parts, "-B", fmt.Sprintf("%s:%s:%s", v.Host, v.Container, v.Mode))
			}
		}
		if s.GPU {
			parts = append(parts, "--nv")
		}
		parts = append(parts, s.Image)
	}
	parts = append(parts, strings.Fields(s.Command)...)
	return parts, nil
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// coldStart is the container creation + runtime init cost the paper measures
// as ~0.6 s for the Racon-GPU container.
const coldStart = 600 * time.Millisecond

// Running is a launched container instance.
type Running struct {
	// ID is a unique instance identifier.
	ID string
	// CommandLine is the assembled launch command.
	CommandLine []string
	// StartupCost is pull time (first launch) plus cold start.
	StartupCost time.Duration
	// VisibleDevices are the GPU minor IDs exposed inside the container
	// (from CUDA_VISIBLE_DEVICES, or nil meaning "all").
	VisibleDevices []int
	// GPU reports whether devices were injected.
	GPU bool
}

// Engine launches containers against a registry. NvidiaDocker mirrors
// whether the host has NVIDIA-Docker installed — without it GPU injection
// fails, as the paper notes ("If there is no GPU available, the
// NVIDIA-Docker library will not work").
type Engine struct {
	Registry     *Registry
	NvidiaDocker bool
	// Faults, when armed, is consulted before every launch with an OpLaunch
	// site built from the spec's job context. A fired fault aborts the
	// launch with a classified error — the simulated equivalent of
	// `docker run` dying on a pull timeout or a wedged containerd.
	Faults *faults.Plan
	nextID int
}

// NewEngine returns an engine over a fresh default registry with
// NVIDIA-Docker available.
func NewEngine() *Engine {
	return &Engine{Registry: NewRegistry(), NvidiaDocker: true}
}

// Launch pulls the image if needed and creates a container instance,
// returning the startup cost to charge to the virtual clock.
func (e *Engine) Launch(s LaunchSpec) (*Running, error) {
	cmd, err := AssembleCommand(s)
	if err != nil {
		return nil, err
	}
	site := faults.Site{Op: faults.OpLaunch, Job: s.JobID, Tool: s.ToolID, Attempt: s.Attempt}
	if f, fired := e.Faults.Check(s.At, site); fired {
		return nil, faults.NewError(site, f)
	}
	if s.GPU && !e.NvidiaDocker {
		return nil, fmt.Errorf("container: GPU requested but NVIDIA-Docker is not installed on the host")
	}
	_, pullCost, err := e.Registry.Pull(s.Image)
	if err != nil {
		return nil, err
	}
	visible, err := parseVisibleDevices(s.Env["CUDA_VISIBLE_DEVICES"])
	if err != nil {
		return nil, err
	}
	e.nextID++
	return &Running{
		ID:             fmt.Sprintf("%s-%04d", s.Runtime, e.nextID),
		CommandLine:    cmd,
		StartupCost:    pullCost + coldStart,
		VisibleDevices: visible,
		GPU:            s.GPU,
	}, nil
}

// parseVisibleDevices interprets a CUDA_VISIBLE_DEVICES value; empty means
// no restriction (nil).
func parseVisibleDevices(v string) ([]int, error) {
	v = strings.TrimSpace(v)
	if v == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(v, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("container: bad CUDA_VISIBLE_DEVICES entry %q", part)
		}
		out = append(out, id)
	}
	return out, nil
}
