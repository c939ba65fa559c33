package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"astro/internal/campaign"
)

// cmdWorker runs one pull-based campaign worker against a coordinator
// (astro-serve with its /work endpoints). The worker leases
// content-addressed cells — simulation jobs and training cells alike —
// executes them on -j parallel executors and pushes canonical results
// back; killing it at any point is safe, because its in-flight cells
// re-lease after the coordinator's TTL. The first SIGTERM/SIGINT drains
// instead: the worker stops leasing, finishes and submits everything it
// holds, and exits with zero held leases (the rolling-restart path); a
// second signal aborts immediately. While it executes, a heartbeat
// renews the leases under execution (POST /work/renew), so cells longer
// than the TTL — training especially — survive a short -lease-ttl on the
// coordinator; -renew overrides the heartbeat interval (default: a third
// of the TTL the coordinator advertises) and -renew -1ns disables it for
// protocol testing. -token authenticates against a coordinator started
// with one.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	coordinator := fs.String("coordinator", "http://localhost:8080", "coordinator base URL (astro-serve)")
	id := fs.String("id", defaultWorkerID(), "worker identity for lease accounting")
	maxCells := fs.Int("max", 0, "cells per lease (0 = 2 per executor)")
	par := fs.Int("j", 1, "parallel cell executors under one lease/heartbeat loop")
	poll := fs.Duration("poll", 500*time.Millisecond, "idle poll interval")
	renew := fs.Duration("renew", 0, "lease renewal heartbeat interval (0 = a third of the coordinator's TTL; negative disables renewal)")
	cacheDir := fs.String("cache", "", "local result cache directory (answers re-leased cells without resimulating)")
	shards := fs.Int("shards", 0, "shard the local cache by key prefix (0 = the existing cache's count, or 1 for a new directory)")
	storeMaxBytes := fs.Int64("store-max-bytes", 0, "cap the local cache; LRU-evicts past the cap (0 = unbounded; requires -cache)")
	hotCacheBytes := fs.Int64("hot-cache-bytes", 0, "cap the in-memory hot result cache (0 with -store-max-bytes = same as the disk cap)")
	token := fs.String("token", "", "bearer token for the coordinator's /work endpoints")
	ignorePrograms := fs.Bool("ignore-programs", false, "compile every cell locally, ignoring coordinator-shipped compiled programs (diagnostic; results are byte-identical either way)")
	quiet := fs.Bool("q", false, "suppress per-cell progress on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}

	storeCfg := campaign.StoreConfig{MaxBytes: *storeMaxBytes, HotBytes: *hotCacheBytes}
	var store campaign.ResultStore
	if *cacheDir != "" || *shards > 0 {
		ss, err := campaign.NewShardedStoreWith(*cacheDir, *shards, storeCfg)
		if err != nil {
			return err
		}
		store = ss
	}

	ctx, cancel := context.WithCancel(bgContext())
	defer cancel()

	w := &campaign.Worker{
		Coordinator: strings.TrimRight(*coordinator, "/") + "/work",
		ID:          *id,
		Max:         *maxCells,
		Parallel:    *par,
		Poll:        *poll,
		Renew:       *renew,
		Store:       store,
		Token:       *token,

		IgnorePrograms: *ignorePrograms,
	}

	// First signal: drain — finish and submit every held lease, then exit
	// clean. Second signal: abort; the coordinator re-leases what was held.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		<-sig
		fmt.Fprintf(os.Stderr, "astro worker %s: draining — finishing held leases (signal again to abort)\n", *id)
		w.Drain()
		<-sig
		fmt.Fprintf(os.Stderr, "astro worker %s: aborting; held leases re-issue after the TTL\n", *id)
		cancel()
	}()
	if !*quiet {
		// Lease troubles (coordinator unreachable, 5xx) are surfaced with
		// the attempt count and backoff so an operator can tell a dead
		// coordinator from an idle queue; -q silences them like progress.
		w.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
		w.OnProgress = func(p campaign.Progress) {
			mark := " "
			if p.CacheHit {
				mark = "+"
			}
			if p.Err != "" {
				mark = "!"
			}
			fmt.Fprintf(os.Stderr, "worker %s:%s %s (%.2fs)%s\n", *id, mark, p.Label, p.WallS, errSuffix(p.Err))
		}
	}
	fmt.Fprintf(os.Stderr, "astro worker %s: pulling from %s (%d executors)\n", *id, *coordinator, *par)
	return w.Run(ctx)
}

func errSuffix(err string) string {
	if err == "" {
		return ""
	}
	return " — " + err
}

func defaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}
