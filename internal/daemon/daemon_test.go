package daemon

import (
	"flag"
	"net"
	"net/http"
	"syscall"
	"testing"
	"time"

	"repro/internal/lbone"
	"repro/internal/obs"
)

// mainArgs runs Main with a port-0 scrape address and JSON logs.
func mainArgs(t *testing.T, run func(d *Daemon) error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Main("testd", fs, []string{"-metrics-listen", "127.0.0.1:0", "-log-json"}, run)
}

// TestSignalDeregistersBeforeStop serves a surface announced to an
// in-process L-Bone, signals the process, and requires the control entry
// to be gone by the time Stop closes.
func TestSignalDeregistersBeforeStop(t *testing.T) {
	reg, err := lbone.ServeRegistry("127.0.0.1:0", lbone.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	lb := lbone.NewClient(reg.Addr())

	mainArgs(t, func(d *Daemon) error {
		if err := d.Serve(obs.Surface{Component: d.Component}, lb, "testd-0"); err != nil {
			return err
		}
		var listed []lbone.ControlInfo
		for deadline := time.Now().Add(5 * time.Second); len(listed) == 0; {
			if time.Now().After(deadline) {
				t.Fatal("surface never announced")
			}
			time.Sleep(10 * time.Millisecond)
			if listed, err = lb.ListControls(); err != nil {
				t.Fatal(err)
			}
		}
		if ci := listed[0]; ci.Component != "testd" || ci.Name != "testd-0" {
			t.Fatalf("announced %+v", ci)
		}
		resp, err := http.Get("http://" + listed[0].Addr + "/trace/not-hex")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("/trace/not-hex = %d, want 400", resp.StatusCode)
		}

		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		<-d.Stop
		if listed, err = lb.ListControls(); err != nil || len(listed) != 0 {
			t.Fatalf("after Stop: CLIST = %+v, %v; want empty", listed, err)
		}
		return nil
	})
}

// TestDeregisterIsBounded announces to a registry that accepts but never
// answers: Main must still return within the deregistration bound.
func TestDeregisterIsBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		// Hold every connection open, unanswered, until the listener closes.
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	start := time.Now()
	mainArgs(t, func(d *Daemon) error {
		return d.Serve(obs.Surface{Component: d.Component}, lbone.NewClient(ln.Addr().String()), "testd-0")
	})
	if took := time.Since(start); took > deregisterTimeout+2*time.Second {
		t.Fatalf("Main returned after %v with the registry silent, want about %v", took, deregisterTimeout)
	}
}
