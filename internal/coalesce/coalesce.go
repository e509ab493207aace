// Package coalesce merges concurrent calls into one. Callers that
// arrive within a time window of each other (or until a maximum number
// of items is pending) are flushed as a single call over the
// concatenation of their items, and each caller receives its own slice
// of the result. fvpd uses it twice: at the service edge, where a flush
// is one admission pass and one durable-store append, and per cluster
// peer, where a flush is one forwarded HTTP request.
//
// Merging is a fast path, never a semantic: each caller's group keeps
// its own all-or-nothing boundary. When the merged call is refused and
// the Split predicate says the refusal may belong to one rider (a
// tenant over quota, one malformed spec), the flush re-runs each group
// alone so one rider cannot poison the strangers sharing its window.
package coalesce

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fvp/internal/telemetry"
)

// Coalescer batches calls to Call. Set the exported fields before the
// first Do and leave them unchanged afterwards.
type Coalescer[T, R any] struct {
	// Window is how long the first caller into an empty window waits
	// for company. 0 makes every Do a direct call.
	Window time.Duration
	// Max flushes the window early once this many items are pending;
	// 0 leaves only the timer.
	Max int
	// Call performs one call over items and returns one result per
	// item, in order. A flush calls it with context.Background(): the
	// riders of a window belong to different callers, so no single
	// caller's cancellation may cancel the rest. A direct call passes
	// the caller's own ctx.
	Call func(ctx context.Context, items []T) ([]R, error)
	// Split reports whether an error from a merged call may belong to
	// a single rider, in which case the flush re-runs each group alone
	// and hands each its own outcome. Errors it rejects (or every
	// error, when Split is nil) are returned to every rider as is.
	Split func(error) bool
	// Sizes, when non-nil, records the item count of every flush.
	Sizes *telemetry.Hist

	mu      sync.Mutex
	pending []*group[T, R]
	n       int // items pending across groups
	timer   *time.Timer
	closed  bool
}

// group is one caller's items riding a flush, with the channel its
// outcome comes back on (buffered, so a flush never blocks on a caller
// that stopped waiting).
type group[T, R any] struct {
	items []T
	ch    chan outcome[R]
}

type outcome[R any] struct {
	res []R
	err error
}

// Do parks items until their flush completes and returns this caller's
// share of the outcome. The first group into an empty window arms the
// timer; reaching Max flushes at once on the caller's goroutine. If ctx
// ends first Do returns ctx.Err(); the items still ride the flush.
// With no window, no items, or after Close, Do calls Call directly.
func (c *Coalescer[T, R]) Do(ctx context.Context, items []T) ([]R, error) {
	if c.Window <= 0 || len(items) == 0 {
		return c.call(ctx, items)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return c.call(ctx, items)
	}
	g := &group[T, R]{items: items, ch: make(chan outcome[R], 1)}
	c.pending = append(c.pending, g)
	c.n += len(items)
	var flush []*group[T, R]
	if c.Max > 0 && c.n >= c.Max {
		flush = c.takeLocked()
	} else if len(c.pending) == 1 {
		c.timer = time.AfterFunc(c.Window, c.flushTimer)
	}
	c.mu.Unlock()
	c.flush(flush)
	select {
	case o := <-g.ch:
		return o.res, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Pending reports how many items are parked in the open window.
func (c *Coalescer[T, R]) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Close flushes the open window synchronously; later calls to Do go
// straight to Call. A caller parked when Close begins therefore always
// gets an outcome rather than hanging.
func (c *Coalescer[T, R]) Close() {
	c.mu.Lock()
	c.closed = true
	groups := c.takeLocked()
	c.mu.Unlock()
	c.flush(groups)
}

// takeLocked claims the open window for a flush and disarms its timer.
func (c *Coalescer[T, R]) takeLocked() []*group[T, R] {
	groups := c.pending
	c.pending = nil
	c.n = 0
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	return groups
}

func (c *Coalescer[T, R]) flushTimer() {
	c.mu.Lock()
	groups := c.takeLocked()
	c.mu.Unlock()
	c.flush(groups)
}

// flush makes one call over the groups' items and slices the results
// back to each group by offset.
func (c *Coalescer[T, R]) flush(groups []*group[T, R]) {
	if len(groups) == 0 {
		return
	}
	items := groups[0].items
	if len(groups) > 1 {
		items = nil
		for _, g := range groups {
			items = append(items, g.items...)
		}
	}
	if c.Sizes != nil {
		c.Sizes.Observe(float64(len(items)))
	}
	res, err := c.call(context.Background(), items)
	switch {
	case err == nil:
		off := 0
		for _, g := range groups {
			g.ch <- outcome[R]{res: res[off : off+len(g.items)]}
			off += len(g.items)
		}
	case len(groups) > 1 && c.Split != nil && c.Split(err):
		for _, g := range groups {
			res, err := c.call(context.Background(), g.items)
			g.ch <- outcome[R]{res, err}
		}
	default:
		for _, g := range groups {
			g.ch <- outcome[R]{err: err}
		}
	}
}

// call runs Call and holds it to one result per item, so a short or
// long answer can never be sliced into the wrong rider's share.
func (c *Coalescer[T, R]) call(ctx context.Context, items []T) ([]R, error) {
	res, err := c.Call(ctx, items)
	if err == nil && len(res) != len(items) {
		return nil, fmt.Errorf("coalesce: call returned %d results for %d items", len(res), len(items))
	}
	return res, err
}
