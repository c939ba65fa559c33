package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"astro/internal/campaign"
)

// cluster is an in-process distributed campaign cluster: a loopback HTTP
// coordinator (the same campaign.WorkHandler astro-serve mounts) plus n
// pull-based workers. The CLI uses it for `-workers N` on campaign and
// scenario sweep, so the flag exercises the real wire protocol — leases,
// result submissions, key verification — not a shortcut around it.
type cluster struct {
	runner *campaign.RemoteRunner
	queue  *campaign.WorkQueue
	url    string

	srv       *http.Server
	cancel    context.CancelFunc
	stopSweep func()
	wg        sync.WaitGroup
}

// startCluster spins up the coordinator and n workers sharing store.
func startCluster(n int, store campaign.ResultStore) (*cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster needs at least 1 worker, got %d", n)
	}
	q := campaign.NewWorkQueue(campaign.DefaultLeaseTTL)
	q.Store = store // keep late results of cancelled sweeps
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c := &cluster{
		queue: q,
		url:   "http://" + ln.Addr().String(),
		srv:   &http.Server{Handler: http.StripPrefix("/work", campaign.WorkHandler(q, store))},
	}
	// Background sweep: expired leases requeue on schedule even while
	// every worker is busy executing (none polling).
	c.stopSweep = q.StartSweeper(0)
	go c.srv.Serve(ln)

	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for i := 0; i < n; i++ {
		w := &campaign.Worker{
			Coordinator: c.url + "/work",
			ID:          fmt.Sprintf("local-%d", i),
			Max:         2,
			Poll:        20 * time.Millisecond,
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			if err := w.Run(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "astro:", err)
			}
		}()
	}
	c.runner = &campaign.RemoteRunner{Queue: q, Store: store}
	return c, nil
}

// close stops the workers, the sweeper, and the coordinator.
func (c *cluster) close() {
	c.cancel()
	c.wg.Wait()
	c.stopSweep()
	shCtx, done := context.WithTimeout(context.Background(), time.Second)
	defer done()
	c.srv.Shutdown(shCtx)
}

// newRunner picks the execution backend for a CLI sweep: the local pool, or
// a loopback worker cluster when workers > 0. The returned cleanup must run
// after the sweep (no-op for the pool).
func newRunner(poolWorkers, remoteWorkers int, store campaign.ResultStore) (campaign.Runner, func(), error) {
	if remoteWorkers <= 0 {
		return &campaign.Pool{Workers: poolWorkers, Store: store}, func() {}, nil
	}
	c, err := startCluster(remoteWorkers, store)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "astro: loopback cluster on %s with %d workers\n", c.url, remoteWorkers)
	return c.runner, c.close, nil
}
