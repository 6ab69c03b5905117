package tcpbus

import (
	"os"
	"path/filepath"
	"testing"
)

// Incarnations must survive kill -9: each Bump is fsynced to the member's
// catalog file before the member may speak on the network.
func TestCatalogIncarnationPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if inc, err := c1.Bump("h0", "127.0.0.1:9001"); err != nil || inc != 1 {
		t.Fatalf("first boot inc = %d, err %v; want 1", inc, err)
	}
	if inc, err := c1.Bump("h0", "127.0.0.1:9001"); err != nil || inc != 2 {
		t.Fatalf("second boot inc = %d, err %v; want 2", inc, err)
	}

	// A fresh open (the restarted process) continues the sequence.
	c2, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if inc, err := c2.Bump("h0", "127.0.0.1:9002"); err != nil || inc != 3 {
		t.Fatalf("post-restart inc = %d, err %v; want 3", inc, err)
	}
	rec, found, err := c2.Last("h0")
	if err != nil || !found || rec.Inc != 3 || rec.Addr != "127.0.0.1:9002" {
		t.Fatalf("last record wrong: %+v found=%v err=%v", rec, found, err)
	}

	// A torn tail (partial final record) is discarded, not fatal.
	path := filepath.Join(dir, "h0.member")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, found, err = c2.Last("h0")
	if err != nil || !found || rec.Inc != 2 {
		t.Fatalf("torn tail not tolerated: %+v found=%v err=%v", rec, found, err)
	}
}
