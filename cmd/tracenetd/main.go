// Command tracenetd is the long-running tracenet campaign service: an HTTP
// submission API, a freshness-aware campaign scheduler, per-tenant probe
// budgets, and a crash-safe spool (see DESIGN.md §14).
//
// Usage:
//
//	tracenetd -spool dir [flags]
//
//	-spool dir        the campaign journal directory (required; created if
//	                  absent). Accepted specs, lifecycle state, checkpoints,
//	                  and final artifacts all live here; a restart replays it.
//	-serve addr       HTTP listen address (default :8080; ":0" picks a port).
//	                  Serves the submission API under /api/v1/ alongside the
//	                  observability plane (/metrics, /readyz, /campaigns, ...).
//	-tenants file     tenant policy file: a JSON array of tenant configs
//	                  ({"name", "max_concurrent", "probe_budget",
//	                  "rate_interval", "rate_burst"}). The entry named "*"
//	                  sets the default policy for tenants not listed.
//	-concurrent n     campaigns run at once (default 1; 1 keeps cross-campaign
//	                  pacing deterministic)
//	-stall-window n   per-campaign stall watchdog window in virtual ticks for
//	                  the /readyz staleness check (0 = default)
//	-log-level l      minimum structured log level: debug, info, warn, error
//	                  (default info); logs go to stderr as JSON lines and to
//	                  the /logz ring
//
// The API:
//
//	POST   /api/v1/campaigns                 submit a campaign spec
//	GET    /api/v1/campaigns                 list campaigns
//	GET    /api/v1/campaigns/{id}            status + live progress
//	GET    /api/v1/campaigns/{id}/report     byte-stable final report
//	GET    /api/v1/campaigns/{id}/eval       ground-truth evaluation JSON
//	GET    /api/v1/campaigns/{id}/checkpoint campaign checkpoint (schema collect.CheckpointVersion)
//	DELETE /api/v1/campaigns/{id}            cancel
//
// SIGINT/SIGTERM drains: running campaigns are cancelled and checkpointed
// into the spool, queued ones stay journaled, and the next start resumes
// both — a campaign interrupted mid-run produces a final report
// byte-identical to an uninterrupted one.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"tracenet/internal/daemon"
	"tracenet/internal/obs"
)

// options carries every CLI knob into run, keeping the flag surface testable.
type options struct {
	spool       string
	serve       string
	tenants     string // tenant policy JSON file
	concurrent  int
	stallWindow uint64
	logLevel    string

	// Test hooks: closing shutdown substitutes for a SIGINT/SIGTERM
	// delivery, and onServe observes the bound listen address.
	shutdown <-chan struct{}
	onServe  func(addr string)
}

func main() {
	var o options
	flag.StringVar(&o.spool, "spool", "", "campaign journal directory (required)")
	flag.StringVar(&o.serve, "serve", ":8080", "HTTP listen address (\":0\" picks a port)")
	flag.StringVar(&o.tenants, "tenants", "", "tenant policy JSON file (array of tenant configs; name \"*\" sets the default)")
	flag.IntVar(&o.concurrent, "concurrent", 1, "campaigns run at once")
	flag.Uint64Var(&o.stallWindow, "stall-window", 0, "per-campaign stall watchdog window in virtual ticks (0 = default)")
	flag.StringVar(&o.logLevel, "log-level", "", "minimum structured log level: debug, info, warn, error")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "tracenetd: unexpected arguments:", flag.Args())
		os.Exit(2)
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "tracenetd:", err)
		os.Exit(1)
	}
}

// readTenants parses the tenant policy file: a JSON array of TenantConfig,
// where the entry named "*" becomes the default policy for unlisted tenants.
func readTenants(path string) (configured []daemon.TenantConfig, defaults daemon.TenantConfig, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, defaults, err
	}
	var all []daemon.TenantConfig
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, defaults, fmt.Errorf("%s: %w", path, err)
	}
	for _, tc := range all {
		if tc.Name == "*" {
			defaults = tc
			defaults.Name = ""
			continue
		}
		if tc.Name == "" {
			return nil, defaults, fmt.Errorf("%s: tenant config without a name", path)
		}
		configured = append(configured, tc)
	}
	return configured, defaults, nil
}

func run(w io.Writer, o options) error {
	if o.spool == "" {
		return errors.New("-spool is required")
	}
	cfg := daemon.Config{
		Spool:       o.spool,
		Concurrent:  o.concurrent,
		StallWindow: o.stallWindow,
	}
	if o.tenants != "" {
		configured, defaults, err := readTenants(o.tenants)
		if err != nil {
			return err
		}
		cfg.Tenants = configured
		cfg.TenantDefaults = defaults
	}

	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}

	lvl := obs.LevelInfo
	if o.logLevel != "" {
		if lvl, err = obs.ParseLevel(o.logLevel); err != nil {
			return err
		}
	}
	// The daemon's log rides the scheduler clock, so two same-seed runs emit
	// identically-stamped records.
	lg := obs.NewLogger(d.Clock(), os.Stderr, lvl, obs.DefaultLogRingSize)
	d.SetLogger(lg)

	// The signal handler is installed before the server starts so a signal
	// racing the first request is never lost. Tests substitute the shutdown
	// channel for a real signal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.shutdown != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		go func() {
			select {
			case <-o.shutdown:
				cancel()
			case <-ctx.Done():
			}
		}()
	}

	// Mount the API and readiness sources before the listener opens: the
	// first request already sees /api/v1/ routed and /readyz reporting the
	// replay state.
	srv := obs.NewServer(d.Telemetry(), lg)
	d.Attach(srv)
	addr, err := srv.Start(o.serve)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tracenetd on http://%s/ (spool %s)\n", addr, o.spool)
	if o.onServe != nil {
		o.onServe(addr.String())
	}

	if err := d.Start(); err != nil {
		srv.Shutdown(context.Background())
		return err
	}
	lg.Info("tracenetd serving", "addr", addr.String(), "spool", o.spool)

	<-ctx.Done()
	fmt.Fprintln(w, "draining: checkpointing running campaigns into the spool")
	if err := d.Drain(context.Background()); err != nil {
		return err
	}
	return srv.Shutdown(context.Background())
}
