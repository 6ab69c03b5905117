//go:build unix

package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockName is the advisory exclusive lock file taken for the lifetime of an
// open journal. flock(2) locks are tied to the open file description, so
// they vanish with the holding process — including on kill -9 — which is
// exactly the liveness signal handler failover needs.
const lockName = "LOCK"

// acquireLock takes the directory's exclusive lock without blocking.
func acquireLock(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if err == syscall.EWOULDBLOCK || err == syscall.EAGAIN {
			return nil, fmt.Errorf("journal: %w", &LockedError{Dir: dir})
		}
		return nil, fmt.Errorf("journal: lock %s: %w", dir, err)
	}
	return f, nil
}

// releaseLock drops the flock by closing its file description. Safe on nil.
func releaseLock(f *os.File) {
	if f != nil {
		_ = f.Close()
	}
}

// syncDir fsyncs a directory, persisting the entries created or renamed in
// it: fsync(2) on a file does not.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: sync dir %s: %w", dir, err)
	}
	return nil
}
