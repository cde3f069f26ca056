package clitest

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ibp"
)

// TestDepotDirPersistsAcrossRestart runs ibp-depot with -dir and no
// -backend: the disk store is the pack engine, and a blob stored before a
// SIGTERM is served again by a depot restarted on the same address and
// directory. The retired file backend is refused by name.
func TestDepotDirPersistsAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real binaries")
	}
	addr := freePorts(t, 1)[0]
	work := t.TempDir()
	dir := filepath.Join(work, "store")
	secret := filepath.Join(work, "secret")
	if err := os.WriteFile(secret, []byte("clitest-secret-0123456789"), 0o600); err != nil {
		t.Fatal(err)
	}
	args := []string{"-listen", addr, "-capacity", "1048576", "-dir", dir, "-secret-file", secret}
	blob := bytes.Repeat([]byte("persisted "), 100)

	first := startLogged(t, "ibp-depot", args...)
	waitListening(t, addr)
	c := ibp.NewClient()
	set, err := c.Allocate(addr, 4096, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(set.Write, blob); err != nil {
		t.Fatal(err)
	}
	c.Close()
	first.stop(t)
	for _, pattern := range []string{"journal.jsonl", "bundle-*.pack"} {
		if m, err := filepath.Glob(filepath.Join(dir, pattern)); err != nil || len(m) == 0 {
			t.Fatalf("%s holds no %s after a -dir run (%v)", dir, pattern, err)
		}
	}

	second := startLogged(t, "ibp-depot", args...)
	waitListening(t, addr)
	c = ibp.NewClient()
	defer c.Close()
	got, err := c.Load(set.Read, 0, int64(len(blob)))
	if err != nil {
		t.Fatalf("load after restart: %v", err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("load after restart returned %d different bytes", len(got))
	}
	second.stop(t)

	out, err := exec.Command(bin("ibp-depot"), "-listen", "127.0.0.1:0", "-backend", "file", "-dir", dir).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "disk backend was retired") {
		t.Fatalf("-backend file: err=%v output:\n%s", err, out)
	}
}
