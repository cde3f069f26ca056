package clitest

import (
	"os/exec"
	"syscall"
	"testing"
	"time"

	"repro/internal/lbone"
)

// TestCleanShutdownDeregistersControl stops a depot with SIGTERM and
// requires its control entry to leave the L-Bone's control table: a
// cleanly stopped daemon must not linger in the aggregator's member list
// until its TTL runs out.
func TestCleanShutdownDeregistersControl(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real binaries")
	}
	addrs := freePorts(t, 2)
	lboneAddr, depotAddr := addrs[0], addrs[1]
	daemon(t, "lbone-server", "-listen", lboneAddr)
	waitListening(t, lboneAddr)

	depot := exec.Command(bin("ibp-depot"), "-listen", depotAddr, "-capacity", "1048576",
		"-lbone", lboneAddr, "-name", "UTK1", "-metrics-listen", "127.0.0.1:0")
	if err := depot.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- depot.Wait() }()
	t.Cleanup(func() {
		depot.Process.Kill()
		<-exited
	})

	lb := lbone.NewClient(lboneAddr)
	depotListed := func() bool {
		cs, err := lb.ListControls()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cs {
			if c.Component == "ibp-depot" {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(10 * time.Second)
	for !depotListed() {
		if time.Now().After(deadline) {
			t.Fatal("depot never announced its control endpoint")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := depot.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		exited <- err
		if err != nil {
			t.Fatalf("depot exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("depot did not exit within 10s of SIGTERM")
	}
	if depotListed() {
		t.Fatal("cleanly stopped depot is still in the control table")
	}
}
