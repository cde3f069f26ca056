// Command lbone-server runs a Logistical Backbone registry: depots
// register themselves, clients query for depots by capacity, duration and
// proximity (paper §2.2).
//
// Usage:
//
//	lbone-server -listen :6767 -ttl 5m
//
// With -replicas the server joins a statically-configured replica group:
// it installs the listed view (every member runs with the same -replicas,
// -view-seq and -shards values) and additionally serves the quorum verbs
// — view-stamped registration, depot queries and the sharded exNode
// directory — alongside the classic single-registry protocol.
//
//	lbone-server -listen :6767 -replicas host1:6767,host2:6767,host3:6767
package main

import (
	"flag"
	"os"
	"time"

	"repro/internal/daemon"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/registry"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:6767", "address to listen on")
		ttl      = flag.Duration("ttl", 5*time.Minute, "depot liveness window (0 = never expire)")
		poll     = flag.Duration("poll", 0, "refresh depot capacities via STATUS at this interval (0 = off)")
		replicas = flag.String("replicas", "", "comma-separated replica group membership (including this member); empty = classic single registry")
		viewSeq  = flag.Int64("view-seq", 1, "view sequence number of the static -replicas membership")
		shards   = flag.Int("shards", registry.DefaultShards, "exNode directory shard count (must match across the group)")
	)
	daemon.Main("lbone-server", flag.CommandLine, os.Args[1:], func(d *daemon.Daemon) error {
		logger := d.Logger
		var s *lbone.Server
		var err error
		if *replicas != "" {
			var rep *registry.Replica
			s, rep, err = registry.Serve(*listen, registry.Config{
				Members: lbone.SplitAddrs(*replicas),
				Seq:     *viewSeq,
				Shards:  *shards,
				TTL:     *ttl,
				Logger:  logger,
			})
			if err == nil {
				v := rep.View()
				logger.Info("replica group", "seq", v.Seq, "members", len(v.Members), "shards", v.Shards)
			}
		} else {
			s, err = lbone.ServeRegistry(*listen, lbone.ServerConfig{
				TTL:    *ttl,
				Logger: logger,
			})
		}
		if err != nil {
			return err
		}
		logger.Info("listening", "addr", s.Addr(), "ttl", *ttl)
		// Self-register the control endpoint in this registry's own
		// control table (and, with -replicas, its peers'), so the obsd
		// aggregator scrapes the registry tier alongside the depots.
		self := lbone.NewClient(s.Addr())
		if *replicas != "" {
			self = lbone.NewClient(*replicas)
		}
		if err := d.Serve(s.Surface(), self, s.Addr()); err != nil {
			return err
		}
		if *poll > 0 {
			p := s.StartPoller(ibp.NewClient(), *poll)
			defer p.Stop()
			logger.Info("polling depot capacities", "interval", *poll)
		}
		<-d.Stop
		return s.Close()
	})
}
