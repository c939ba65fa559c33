// Command astro-experiments regenerates every table and figure of the
// paper's evaluation. With -scale paper it reproduces the EXPERIMENTS.md
// numbers; -scale small is a fast smoke run. Simulation sweeps execute on
// the campaign engine: -j widens the worker pool, -cache points at an
// on-disk result store so a re-run skips every simulation it has already
// performed, and -timeout stops scheduling new simulations once it
// expires (in-flight simulations and training finish).
//
// Usage:
//
//	astro-experiments [-scale small|paper] [-fig 1|3|4|6|9|10|11|table1|headline|all]
//	                  [-j N] [-cache dir] [-store-max-bytes N] [-hot-cache-bytes N]
//	                  [-coordinator URL] [-remote addr] [-lease-ttl d] [-timeout d]
//
// -coordinator fronts the store with a trained-agent snapshot exchange
// against a running astro-serve: fig10-style training cells finished on
// any machine pointing at the same coordinator are cache hits here, with
// inference-exact snapshots (results stay byte-identical).
//
// -remote turns this process into the coordinator of a worker fleet: it
// serves the /work lease endpoints on addr and every campaign cell —
// simulation jobs, hybrid-by-agent-key jobs, and fig10's training cells —
// leases out to `astro worker` processes instead of simulating in-process
// (the -j pool remains only as the fallback for non-wireable jobs). Point
// any number of workers at it:
//
//	astro-experiments -fig 10 -remote :8090 -cache /tmp/coord &
//	astro worker -coordinator http://localhost:8090 -id w1 &
//	astro worker -coordinator http://localhost:8090 -id w2
//
// Results are byte-identical to in-process execution, and a warm -cache
// re-run leases nothing at all. -lease-ttl sizes the worker leases; it may
// be shorter than the slowest cell, because workers renew their leases
// in-protocol while executing.
//
// Every requested figure runs even if an earlier one fails; the exit
// status is non-zero when any of them failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strings"
	"time"

	"astro/internal/campaign"
	"astro/internal/experiments"
	"astro/internal/journal"
	"astro/internal/telemetry"
)

func main() {
	scaleStr := flag.String("scale", "small", "experiment scale: small or paper")
	fig := flag.String("fig", "all", "which artifact: 1,3,4,6,9,10,11,table1,headline,all")
	jobs := flag.Int("j", runtime.NumCPU(), "campaign pool workers for simulation sweeps")
	cacheDir := flag.String("cache", "", "on-disk result cache directory (default: in-memory only)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "cap the on-disk result store; LRU-evicts unpinned entries past the cap (0 = unbounded; requires -cache)")
	hotCacheBytes := flag.Int64("hot-cache-bytes", 0, "cap the in-memory hot result cache (0 with -store-max-bytes = same as the disk cap)")
	coordinator := flag.String("coordinator", "", "astro-serve URL: exchange trained-agent snapshots with its store, so fig10-style training done on any machine warms this one (and vice versa)")
	remoteAddr := flag.String("remote", "", "listen address: become the coordinator of an `astro worker` fleet and lease every cell (simulations and training) to it")
	leaseTTL := flag.Duration("lease-ttl", campaign.DefaultLeaseTTL, "with -remote: how long a worker holds a cell between renewals")
	token := flag.String("token", "", "with -remote: bearer token required on the /work endpoints (empty = open)")
	timeout := flag.Duration("timeout", 0, "stop scheduling simulations after this duration; in-flight work finishes (0 = none)")
	pprofOn := flag.Bool("pprof", false, "with -remote: mount net/http/pprof endpoints under /debug/pprof/ on the coordinator")
	journalDir := flag.String("journal", "", "with -remote: flight-recorder directory, journaling every queue lifecycle event (empty = off)")
	flag.Parse()

	sc := experiments.Small
	if *scaleStr == "paper" {
		sc = experiments.Paper
	} else if *scaleStr != "small" {
		fmt.Fprintln(os.Stderr, "astro-experiments: -scale must be small or paper")
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	store, err := campaign.NewShardedStoreWith(*cacheDir, 0, campaign.StoreConfig{MaxBytes: *storeMaxBytes, HotBytes: *hotCacheBytes})
	if err != nil {
		fmt.Fprintln(os.Stderr, "astro-experiments:", err)
		os.Exit(1)
	}
	var exec campaign.ResultStore = store
	if *coordinator != "" {
		exec = campaign.NewAgentExchange(strings.TrimRight(*coordinator, "/")+"/work", store)
	}
	cfg := experiments.ExecConfig{Workers: *jobs, Store: exec, Ctx: ctx}
	if *remoteAddr != "" {
		runner, stop, err := startCoordinator(*remoteAddr, *leaseTTL, *jobs, exec, *pprofOn, *token, *journalDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "astro-experiments:", err)
			os.Exit(1)
		}
		defer stop()
		cfg.Runner = runner
	}
	experiments.Configure(cfg)

	if n := run(sc, *fig); n > 0 {
		fmt.Fprintf(os.Stderr, "astro-experiments: %d artifact(s) failed\n", n)
		os.Exit(1)
	}
}

// startCoordinator mounts the worker protocol on addr and returns the
// RemoteRunner that leases this process's cells to the fleet. The local
// pool stays as the fallback for non-wireable jobs; with the whole paper
// suite declarative it sits idle, so a cold fig10 performs zero
// coordinator-local simulations or trainings.
//
// Beside the /work endpoints the coordinator serves GET /metrics
// (Prometheus text over the process-wide telemetry registry), GET
// /healthz (liveness) and GET /readyz (readiness: store writable,
// sweeper live, fleet fresh) so a long paper run is probe-able by the
// same tooling as astro-serve: curl /work/fleet for per-worker rates
// and in-flight cells, /metrics for queue depth, lease-wait and
// execute latency histograms. pprofOn additionally mounts
// /debug/pprof/; token, when non-empty, guards every /work endpoint
// behind bearer auth (point workers here with `astro worker -token`);
// journalDir, when non-empty, records every queue lifecycle event for
// `astro journal replay` and GET /work/journal. The returned stop
// halts the queue's background lease sweeper and closes the journal.
func startCoordinator(addr string, ttl time.Duration, poolWorkers int, store campaign.ResultStore, pprofOn bool, token, journalDir string) (*campaign.RemoteRunner, func(), error) {
	q := campaign.NewWorkQueue(ttl)
	q.Store = store // bank late results of timed-out figures
	closeJournal := func() {}
	if journalDir != "" {
		jw, err := journal.Open(journalDir, journal.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("-journal %s: %w", journalDir, err)
		}
		q.Events = jw
		closeJournal = func() { jw.Close() }
	}
	mux := http.NewServeMux()
	mux.Handle("/work/", http.StripPrefix("/work", campaign.WithBearerAuth(token, campaign.WorkHandler(q, store))))
	mux.Handle("GET /metrics", telemetry.Handler(telemetry.Default))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	healther, _ := store.(campaign.Healther)
	mux.Handle("GET /readyz", campaign.ReadyHandler(q, healther))
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("-remote %s: %w", addr, err)
	}
	stopSweep := q.StartSweeper(0) // requeue expired leases even when no worker is polling
	stop := func() { stopSweep(); closeJournal() }
	go http.Serve(ln, mux)
	fmt.Fprintf(os.Stderr, "astro-experiments: coordinating workers on %s (lease TTL %v); point `astro worker -coordinator http://<host>%s` here\n",
		ln.Addr(), ttl, addr)
	return &campaign.RemoteRunner{
		Queue:        q,
		Store:        store,
		Local:        campaign.Pool{Workers: poolWorkers, Store: store},
		ShipPrograms: true,
	}, stop, nil
}

// run executes the requested artifacts, continuing past failures, and
// returns how many failed.
func run(sc experiments.Scale, fig string) int {
	var f9 *experiments.Fig9Result
	var f10 *experiments.Fig10Result
	var f11 *experiments.Fig11Result

	failed := 0
	section := func(name string, f func() (string, error)) {
		if fig != "all" && fig != name {
			return
		}
		start := time.Now()
		out, err := f()
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "astro-experiments: %s: %v\n", name, err)
			return
		}
		fmt.Println(out)
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	section("1", func() (string, error) {
		r, err := experiments.Fig1(sc)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	section("3", func() (string, error) {
		r, err := experiments.Fig3(sc)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	section("4", func() (string, error) {
		r, err := experiments.Fig4(sc)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	section("6", func() (string, error) {
		r, err := experiments.Fig6()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	section("9", func() (string, error) {
		r, err := experiments.Fig9(sc)
		if err != nil {
			return "", err
		}
		f9 = r
		return r.Render(), nil
	})
	section("10", func() (string, error) {
		r, err := experiments.Fig10(sc)
		if err != nil {
			return "", err
		}
		f10 = r
		return r.Render(), nil
	})
	section("11", func() (string, error) {
		r, err := experiments.Fig11()
		if err != nil {
			return "", err
		}
		f11 = r
		return r.Render(), nil
	})
	section("table1", func() (string, error) {
		return experiments.RenderTable1(), nil
	})
	section("headline", func() (string, error) {
		if f9 == nil && f10 == nil && f11 == nil {
			return "(headline needs figures 9/10/11 in the same invocation)", nil
		}
		return experiments.MakeHeadline(f9, f10, f11).Render(), nil
	})
	return failed
}
