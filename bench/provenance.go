package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// provenance stamps every output with the machine and source it came from.
// Numbers from different stamps are not comparable.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit of the checkout ("unknown" outside a git
	// repository, as in the driver's checkouts); Dirty marks uncommitted
	// changes.
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty"`
	Kernel string `json:"kernel"`
	// JournalFS is the filesystem type under the scratch directory, where
	// every journal of the run lives.
	JournalFS string `json:"journal_fs"`
	// FsyncUS is the calibrated cost of one small write plus fsync there.
	FsyncUS float64 `json:"fsync_us"`
	Note    string  `json:"note"`
}

const provenanceNote = "fsync and loopback latencies are this sandbox's, not a storage device's or a network's; no network delay is injected"

func stamp(e *env) provenance {
	p := provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Kernel: "unknown", JournalFS: fsType(e.root), FsyncUS: calibrateFsync(e.root),
		Note: provenanceNote,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			p.Dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(b))
	}
	return p
}

// calibrateFsync is the median cost of appending one 128-byte record to a
// file in dir and fsyncing it — the floor under every sync-durable
// acknowledgement of the run.
func calibrateFsync(dir string) float64 {
	f, err := os.CreateTemp(dir, "fsync-*")
	if err != nil {
		return 0
	}
	defer os.Remove(filepath.Clean(f.Name()))
	defer f.Close()
	rec := make([]byte, 128)
	failed := false
	ns := timeOp(45, func() {
		if _, err := f.Write(rec); err != nil {
			failed = true
		}
		if err := f.Sync(); err != nil {
			failed = true
		}
	})
	if failed {
		return 0
	}
	return ns / float64(time.Microsecond)
}
