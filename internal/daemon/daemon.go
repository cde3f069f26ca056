// Package daemon is the bootstrap every long-running binary of the stack
// shares: the shared flags, the flight recorder and the logger that feeds
// it, signal-driven shutdown, and the HTTP surface with its L-Bone control
// announcement. ibp-depot, lbone-server, maintaind, nws-server, obsd and
// stackmon run all start, serve and stop this one way, so an operator
// sees every daemon on the same surface and can tell a clean exit (status
// 0, control entry gone) from a crash.
package daemon

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/lbone"
	"repro/internal/obs"
)

// deregisterTimeout bounds how long a stopping daemon waits for its
// control entry to leave the L-Bone, so a daemon whose registry is
// already gone still exits promptly.
const deregisterTimeout = 3 * time.Second

// Daemon is one running daemon's shared plumbing. Stop closes on SIGINT
// or SIGTERM, once the control endpoint has been deregistered.
type Daemon struct {
	Component string
	Logger    *slog.Logger
	Recorder  *obs.FlightRecorder
	Stop      <-chan struct{}

	addr  *string
	pprof *bool

	leave      chan struct{} // closing it makes every announcer deregister
	mu         sync.Mutex
	announcers []chan struct{} // each closes once its announcer has deregistered
	once       sync.Once
}

// Main runs one daemon process. It adds the shared flags to fs
// (-log-json, -pprof, and -metrics-listen for the HTTP surface, off by
// default), parses args, builds the flight recorder and logger, and calls
// run. An error from run is logged and exits 1.
func Main(component string, fs *flag.FlagSet, args []string, run func(d *Daemon) error) {
	MainAt(component, "metrics-listen", "", fs, args, run)
}

// MainAt is Main with the HTTP surface's address under another flag name
// and default: obsd, whose surface is its whole job, keeps -listen.
func MainAt(component, addrFlag, addrDefault string, fs *flag.FlagSet, args []string, run func(d *Daemon) error) {
	logJSON := fs.Bool("log-json", false, "emit structured logs as JSON (default: human-readable text)")
	d := &Daemon{
		Component: component,
		addr: fs.String(addrFlag, addrDefault,
			"serve /metrics, /healthz, /trace/<id>, /postmortem/<trace> and this daemon's own routes over HTTP on this address (empty = off)"),
		pprof: fs.Bool("pprof", false, "also serve /debug/pprof on the HTTP surface (exposes heap contents)"),
		leave: make(chan struct{}),
	}
	fs.Parse(args)
	d.Recorder = obs.NewFlightRecorder(0)
	d.Logger = obs.NewLogger(obs.LogConfig{JSON: *logJSON, Component: component, Recorder: d.Recorder})

	stop := make(chan struct{})
	d.Stop = stop
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		d.Logger.Info("shutting down")
		d.deregister()
		close(stop)
	}()

	err := run(d)
	d.deregister()
	if err != nil {
		d.Logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

// Serve starts the HTTP surface on the shared address flag; with the
// flag empty it does nothing. The surface's recorder defaults to the
// daemon's, pprof joins it only under -pprof, and its URL is logged as
// "metrics listening". With lb set the surface is announced to the L-Bone
// under name until shutdown, which deregisters it before Stop closes.
func (d *Daemon) Serve(srf obs.Surface, lb *lbone.Client, name string) error {
	if *d.addr == "" {
		return nil
	}
	if srf.Recorder == nil {
		srf.Recorder = d.Recorder
	}
	mux := srf.Mux()
	if *d.pprof {
		obs.AttachPprof(mux)
	}
	ln, err := net.Listen("tcp", *d.addr)
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	addr := lbone.AdvertisedControlAddr(ln.Addr().String())
	d.Logger.Info("metrics listening", "url", "http://"+addr+"/metrics")
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			d.Logger.Error("metrics listener", "err", err)
		}
	}()
	if lb != nil {
		done := make(chan struct{})
		d.mu.Lock()
		d.announcers = append(d.announcers, done)
		d.mu.Unlock()
		go func() {
			defer close(done)
			lb.AnnounceControl(lbone.ControlInfo{Addr: addr, Component: d.Component, Name: name}, d.Logger, d.leave)
		}()
	}
	return nil
}

// deregister makes every announcer deregister and waits for them, at
// most deregisterTimeout. Later calls wait for the first to finish.
func (d *Daemon) deregister() {
	d.once.Do(func() {
		close(d.leave)
		d.mu.Lock()
		announcers := d.announcers
		d.mu.Unlock()
		timeout := time.After(deregisterTimeout)
		for _, done := range announcers {
			select {
			case <-done:
			case <-timeout:
				d.Logger.Warn("control deregistration timed out", "after", deregisterTimeout)
				return
			}
		}
	})
}
