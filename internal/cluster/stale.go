// Stale-batched execution: state-reading routers at state-free cost.
//
// An exact-view router needs the whole fleet synchronized at every dispatch,
// which is why it runs on the sequential coordinator. Stale-batched removes
// that per-dispatch synchronization by changing what the router is
// promised. A WindowStaleRouter accepts fleet views observed AS OF THE LAST
// WINDOW BOUNDARY — the coordinator publishes one view per dispatch window
// of up to batchSize arrivals (every shard's exact rest state at the
// previous window's horizon) and evolves it only with its own in-window
// dispatch bookkeeping: each routed arrival counts into its target's
// backlog and dispatch tally until the next boundary republishes exact
// state. Routing a whole window therefore needs no shard synchronization at
// all, and execution runs through the same wide-window batched fast path as
// the state-free routers: one barrier per window, FeedBatch per shard.
//
// The determinism argument is the point. The view published at a boundary
// is a function of (stream prefix, window size) alone: which arrivals form
// a window is fixed by the stream and batchSize, and every shard's state at
// a boundary is fixed by the dispatches before it — never by how many
// workers advanced the shards or in what order they finished. So the
// dispatch sequence, and with it every observable output, is byte-identical
// at ANY worker count, including 0 and 1 (which run the same algorithm
// serially). What stale-batched does NOT promise is the exact-view
// schedule: its routing differs — deterministically — from the sequential
// coordinator's, trading bounded view staleness (at most one window) for
// the disappearance of per-dispatch barriers. The router-quality guard in
// the test suite bounds what that staleness costs in p99 flow.
package cluster

import (
	"fmt"

	"github.com/malleable-sched/malleable/internal/engine"
)

// runStaleBatched is the wide-window mode for window-stale routers: publish
// the boundary view, pre-route a whole window against it (evolving only the
// coordinator's own dispatch counts), then advance every shard through the
// window privately — one barrier per window, exactly like runBatched, with
// the fleet probe observing the same views the router saw.
func (c *coordinator) runStaleBatched() (*engine.LoadResult, error) {
	arrs := make([]engine.Arrival, 0, batchSize)
	releases := make([]float64, 0, batchSize)
	perShard := make([]shardBatch, c.n)
	scratch := c.newFeedScratch()
	var horizon float64

	work := func(s int) error {
		return c.feedWindow(s, arrs, perShard[s].arrivals, scratch, horizon)
	}

	next, ok, err := c.pull()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("cluster: empty arrival stream")
	}
	for ok {
		arrs = arrs[:0]
		releases = releases[:0]
		for i := range perShard {
			perShard[i].arrivals = perShard[i].arrivals[:0]
		}
		// Publish the window's view: every shard is at rest at the previous
		// window's horizon (the last window boundary), so this snapshot —
		// and with it every routing decision of the window — depends only
		// on where the boundaries fall in the stream, never on worker
		// scheduling.
		c.fillStates()
		c.staleViews++
		for ok && len(arrs) < batchSize {
			idx, err := c.route(next)
			if err != nil {
				return nil, err
			}
			arrs = append(arrs, next)
			releases = append(releases, next.Release)
			perShard[idx].arrivals = append(perShard[idx].arrivals, int32(len(arrs)-1))
			c.dispatched[idx]++
			c.routed++
			// The coordinator's own dispatches are the one part of the view
			// it can keep current for free: counting the routed-but-not-yet
			// -admitted arrival into the estimate spreads a window across
			// shards instead of dogpiling the boundary minimum.
			c.states[idx].Backlog++
			c.states[idx].Dispatched = c.dispatched[idx]
			c.observeDispatch(next.Release)
			next, ok, err = c.pull()
			if err != nil {
				return nil, err
			}
		}
		horizon = releases[len(releases)-1]
		if err := c.runWindow(work, releases); err != nil {
			return nil, err
		}
	}
	res, err := c.drainBatched()
	if err != nil {
		return nil, err
	}
	res.StaleViews = c.staleViews
	res.StaleWindow = batchSize
	return res, nil
}
