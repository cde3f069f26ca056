// Command nws-server runs a Network Weather Service daemon: sensors
// RECORD bandwidth/latency measurements, clients request FORECASTs that
// the Logistical Tools use to pick download sources (paper §2.2).
//
// Usage:
//
//	nws-server -listen :6770 -history 512 -metrics-listen :9770 -lbone host:6767
package main

import (
	"flag"
	"os"
	"time"

	"repro/internal/daemon"
	"repro/internal/lbone"
	"repro/internal/nws"
	"repro/internal/obs"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:6770", "address to listen on")
		history   = flag.Int("history", 512, "raw measurements retained per series")
		lboneAddr = flag.String("lbone", "", "L-Bone to announce the HTTP surface to (optional)")
	)
	daemon.Main("nws-server", flag.CommandLine, os.Args[1:], func(d *daemon.Daemon) error {
		s, err := nws.ServeNWS(*listen, nws.NewService(nil, *history), d.Logger)
		if err != nil {
			return err
		}
		d.Logger.Info("listening", "addr", s.Addr())
		var lb *lbone.Client
		if *lboneAddr != "" {
			lb = lbone.NewClient(*lboneAddr)
		}
		if err := d.Serve(obs.Surface{Component: "nws-server", Start: time.Now()}, lb, s.Addr()); err != nil {
			return err
		}
		<-d.Stop
		return s.Close()
	})
}
