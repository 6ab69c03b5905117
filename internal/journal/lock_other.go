//go:build !unix

package journal

import "os"

// Platforms without flock(2) get no inter-process exclusion: the journal
// still works, but nothing stops two live handlers from opening one
// directory, so run one handler per journal there.
func acquireLock(dir string) (*os.File, error) { return nil, nil }

func releaseLock(f *os.File) {}

// syncDir is a no-op where a directory cannot be opened for fsync.
func syncDir(dir string) error { return nil }
