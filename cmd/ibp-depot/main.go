// Command ibp-depot runs an IBP depot daemon: it inserts local storage
// into the network as time-limited, append-only byte arrays addressed by
// capabilities (paper §2.1).
//
// Usage:
//
//	ibp-depot -listen :6714 -capacity 1073741824 -dir /var/ibp \
//	          -secret-file /etc/ibp.secret -lbone host:6767 -name UTK1 -site UTK
//
// With -dir the depot keeps its allocations in a pack-engine store there
// (bundle files plus a journal), so capabilities survive a restart; without
// it they live in memory.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/daemon"
	"repro/internal/depot"
	"repro/internal/geo"
	"repro/internal/ibp"
	"repro/internal/lbone"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:6714", "address to listen on")
		advertised  = flag.String("advertised", "", "address minted into capabilities (default: listen address)")
		capacity    = flag.Int64("capacity", 1<<30, "total bytes to serve")
		maxDuration = flag.Duration("max-duration", 30*24*time.Hour, "longest allocation lifetime granted")
		dir         = flag.String("dir", "", "directory for the pack-engine disk store (required for -backend pack)")
		backendKind = flag.String("backend", "", "storage backend: memory or pack (default: pack when -dir is set, else memory)")
		secretFile  = flag.String("secret-file", "", "file holding the capability-signing secret (default: random per run)")
		lboneAddr   = flag.String("lbone", "", "L-Bone server to register with (optional)")
		name        = flag.String("name", "depot", "depot display name for the L-Bone")
		site        = flag.String("site", "UTK", "site name for proximity resolution (see internal/geo)")
		heartbeat   = flag.Duration("heartbeat", time.Minute, "L-Bone heartbeat interval")
		reapEvery   = flag.Duration("reap", time.Minute, "expired-allocation sweep interval")
		pmDir       = flag.String("postmortem-dir", "", "write panic postmortem bundles to this directory (empty = keep in memory only)")
	)
	daemon.Main("ibp-depot", flag.CommandLine, os.Args[1:], func(dm *daemon.Daemon) error {
		logger := dm.Logger
		secret, err := loadSecret(*secretFile, logger)
		if err != nil {
			return fmt.Errorf("loading secret: %w", err)
		}
		cfg := depot.Config{
			Advertised:    *advertised,
			Secret:        secret,
			Capacity:      *capacity,
			MaxDuration:   *maxDuration,
			Logger:        logger,
			Recorder:      dm.Recorder,
			PostmortemDir: *pmDir,
		}
		kind := *backendKind
		if kind == "" {
			if *dir != "" {
				kind = "pack"
			} else {
				kind = "memory"
			}
		}
		switch kind {
		case "memory":
			// depot.Serve defaults to the in-memory backend.
		case "pack":
			if *dir == "" {
				return fmt.Errorf("-backend pack requires -dir")
			}
			backend, err := depot.NewPackBackend(*dir, depot.DefaultBundleCap)
			if err != nil {
				return fmt.Errorf("opening pack backend: %w", err)
			}
			cfg.Backend = backend
			defer backend.Close()
		default:
			return fmt.Errorf("unknown backend %q (want memory or pack; the per-file disk backend was retired and -dir now serves a pack store)", kind)
		}
		d, err := depot.Serve(*listen, cfg)
		if err != nil {
			return err
		}
		logger.Info("serving", "capacity_bytes", *capacity, "addr", d.Addr(), "advertised", d.Advertised())

		// Optional L-Bone registration + heartbeat.
		var client *lbone.Client
		if *lboneAddr != "" {
			siteInfo, ok := geo.LookupSite(*site)
			if !ok {
				return fmt.Errorf("unknown site %q", *site)
			}
			client = lbone.NewClient(*lboneAddr)
			info := lbone.DepotInfo{
				Addr:        d.Advertised(),
				Name:        *name,
				Site:        siteInfo.Name,
				Loc:         siteInfo.Loc,
				Capacity:    *capacity,
				MaxDuration: *maxDuration,
			}
			if err := client.Register(info); err != nil {
				return fmt.Errorf("registering with L-Bone: %w", err)
			}
			logger.Info("registered with L-Bone", "lbone", *lboneAddr, "name", *name, "site", siteInfo.Name)
			go func() {
				t := time.NewTicker(*heartbeat)
				defer t.Stop()
				for range t.C {
					if err := client.Heartbeat(info.Addr); err != nil {
						logger.Warn("heartbeat failed", "err", err)
					}
				}
			}()
		}
		if err := dm.Serve(d.Surface(), client, *name); err != nil {
			return err
		}

		// Periodic expired-allocation sweep.
		go func() {
			t := time.NewTicker(*reapEvery)
			defer t.Stop()
			for range t.C {
				if n := d.ReapExpired(); n > 0 {
					logger.Info("reaped expired allocations", "n", n)
				}
			}
		}()

		<-dm.Stop
		return d.Close()
	})
}

// loadSecret reads the signing secret, generating an ephemeral one when no
// file is configured (capabilities then die with the process, which is
// fine for testing).
func loadSecret(path string, logger *slog.Logger) ([]byte, error) {
	if path == "" {
		key, err := ibp.NewKey()
		if err != nil {
			return nil, err
		}
		logger.Warn("using an ephemeral secret; capabilities will not survive restarts")
		return []byte(key), nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading secret: %w", err)
	}
	if len(b) < 16 {
		return nil, fmt.Errorf("secret in %s is too short (%d bytes, want >= 16)", path, len(b))
	}
	return b, nil
}
