// Command astro-serve turns the simulator into a service: an HTTP JSON API
// over the campaign engine. Clients POST declarative campaign specs
// (benchmark x platform x scheduler x config x seed grids), watch progress
// over Server-Sent Events, and fetch aggregated result sets. All campaigns
// share one worker pool and one content-addressed result store, so
// resubmitting a spec — or any spec overlapping previously simulated grid
// points — is served from cache.
//
// With -remote, astro-serve is also the coordinator of a distributed
// campaign fleet: instead of simulating in-process it publishes campaign
// cells on the /work lease endpoints, and any number of `astro worker`
// processes — on this machine or others — pull cells, simulate, and push
// canonical results back. Leases expire and re-issue, so killing a worker
// loses nothing; results are byte-identical to local execution (a pinned
// test diffs the fingerprints).
//
// Usage:
//
//	astro-serve [-addr :8080] [-j N] [-cache dir] [-shards N] [-store-max-bytes N] [-remote] [-lease-ttl d] [-token t] [-journal dir]
//
// -shards 0 (the default) opens -cache with the shard count it was created
// with, or as one shard when the directory is new.
//
// Quick tour (see README.md for a full example):
//
//	curl -s localhost:8080/campaigns -d '{"benchmarks":["parsec"],"configs":["all"]}'
//	curl -s localhost:8080/campaigns/c000001            # status
//	curl -N localhost:8080/campaigns/c000001/events     # SSE progress
//	curl -s localhost:8080/campaigns/c000001/results    # aggregated results
//	curl -s localhost:8080/work/status                  # worker fleet status
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"astro/internal/campaign"
	"astro/internal/journal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	jobs := flag.Int("j", runtime.NumCPU(), "campaign pool workers (ignored with -remote: every cell leases to workers)")
	cacheDir := flag.String("cache", "", "on-disk result cache directory (default: in-memory only)")
	shards := flag.Int("shards", 0, "shard the result store by key prefix for concurrent writers (0 = the existing store's count, or 1 for a new directory)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "cap the on-disk result store; LRU-evicts unpinned entries past the cap (0 = unbounded; requires -cache)")
	remote := flag.Bool("remote", false, "execute campaigns on pull-based workers (`astro worker`) instead of in-process")
	leaseTTL := flag.Duration("lease-ttl", campaign.DefaultLeaseTTL, "how long a worker holds a cell before it re-leases")
	token := flag.String("token", "", "bearer token required on all /work endpoints (empty = open, trusted-network)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof profiling endpoints under /debug/pprof/")
	journalDir := flag.String("journal", "", "flight-recorder directory: journal every queue lifecycle event as segment-rotated JSONL (empty = off)")
	flag.Parse()

	storeCfg := campaign.StoreConfig{MaxBytes: *storeMaxBytes}
	store, err := campaign.NewShardedStoreWith(*cacheDir, *shards, storeCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "astro-serve:", err)
		os.Exit(1)
	}
	queue := campaign.NewWorkQueue(*leaseTTL)
	queue.Store = store // keep late results of cancelled campaigns
	closeJournal := func() {}
	if *journalDir != "" {
		jw, err := journal.Open(*journalDir, journal.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "astro-serve:", err)
			os.Exit(1)
		}
		queue.Events = jw
		closeJournal = func() { jw.Close() }
	}
	var runner campaign.Runner = &campaign.Pool{Workers: *jobs, Store: store}
	mode := "local pool"
	if *remote {
		runner = &campaign.RemoteRunner{Queue: queue, Store: store}
		mode = "remote workers"
	}
	eng := campaign.NewEngineWith(runner, store)

	// Background sweep so expired leases requeue promptly even while no
	// worker is polling; stopped on shutdown with the server.
	stopSweep := queue.StartSweeper(0)

	srv := &http.Server{Addr: *addr, Handler: newServer(eng, queue, *pprofOn, *token)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "astro-serve: listening on %s (%s, %d pool workers, cache %s)\n",
		*addr, mode, *jobs, cacheOrMem(*cacheDir))
	select {
	case err := <-errc:
		stopSweep()
		closeJournal()
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "astro-serve:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		// Graceful shutdown: stop the sweeper, let in-flight requests
		// (SSE streams aside) finish, then exit.
		fmt.Fprintln(os.Stderr, "astro-serve: shutting down")
		stopSweep()
		shCtx, done := context.WithTimeout(context.Background(), 5*time.Second)
		defer done()
		srv.Shutdown(shCtx)
		closeJournal()
	}
}

func cacheOrMem(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return dir
}
