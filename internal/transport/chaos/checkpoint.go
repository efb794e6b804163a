package chaos

import "sync"

// Checkpoint is a reusable barrier over a world's in-process workers: the
// last to arrive releases the rest. A worker that fails breaks it instead,
// so the others report rather than wait for ever. Like Leaked, it lives in
// the library so every suite that reads mailboxes "with nothing in flight"
// stops the world the same way.
type Checkpoint struct {
	mu      sync.Mutex
	cond    *sync.Cond
	world   int
	arrived int
	phase   int
	broken  bool
}

// NewCheckpoint builds a barrier for world workers.
func NewCheckpoint(world int) *Checkpoint {
	c := &Checkpoint{world: world}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Wait blocks until every worker has arrived; it reports false if the
// barrier was broken.
func (c *Checkpoint) Wait() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.arrived++
	if c.arrived == c.world {
		c.arrived = 0
		c.phase++
		c.cond.Broadcast()
	} else {
		for p := c.phase; p == c.phase && !c.broken; {
			c.cond.Wait()
		}
	}
	return !c.broken
}

// Abort breaks the barrier for good and releases everyone waiting on it.
func (c *Checkpoint) Abort() {
	c.mu.Lock()
	c.broken = true
	c.cond.Broadcast()
	c.mu.Unlock()
}
