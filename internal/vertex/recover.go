package vertex

import (
	"math/big"
	"sync"

	"dstress/internal/network"
	"dstress/internal/trustedparty"
)

// Recovery is one re-blocking as a node's engine consumes it
// (Engine.ApplyRecovery): node Dead is gone, node Repl takes its block
// slots, Setup is the trusted party's re-signed assignment with re-issued
// certificates. The last two fields are for the replacement only.
type Recovery struct {
	Dead, Repl network.NodeID
	Setup      *trustedparty.SetupResult
	// AdoptedKeys maps vertex → its registered owner's neighbor keys, for
	// every vertex whose acting owner was Dead. The adjuster role for edges
	// into an adopted vertex needs the ORIGINAL registrant's keys — the
	// re-issued certificates were randomized under them.
	AdoptedKeys map[int][]*big.Int
	// DeadBlobs maps query id → Dead's sealed checkpoint at exactly that
	// query's resume barrier, opened with the fleet recovery key only nodes
	// hold. Filled in by whoever stored the checkpoints.
	DeadBlobs map[int][]byte
}

// PlanRecovery decides the re-blocking around dead for the coordinator:
// the lowest live node that shares no block with the casualty
// replaces it, the trusted party re-blocks and re-issues certificates, and
// the replacement is handed the neighbor keys of the vertices it adopts.
// live lists the fleet in ascending id order. Chained deaths resolve
// naturally because each vertex keeps pointing at its registrant via NodeOf.
func PlanRecovery(tp *trustedparty.TrustedParty, setup *trustedparty.SetupResult, regs []trustedparty.NodeRegistration,
	g *Graph, live []network.NodeID, dead network.NodeID) (*Recovery, error) {
	repl, err := trustedparty.PickReplacement(setup.Assignment, dead, live)
	if err != nil {
		return nil, err
	}
	next, err := tp.Reblock(setup, regs, dead, repl)
	if err != nil {
		return nil, err
	}
	rec := &Recovery{Dead: dead, Repl: repl, Setup: next, AdoptedKeys: make(map[int][]*big.Int)}
	for v := 0; v < g.N(); v++ {
		if setup.Assignment.Blocks[g.NodeOf(v)][0] != dead {
			continue
		}
		for _, r := range regs {
			if r.ID == g.NodeOf(v) {
				rec.AdoptedKeys[v] = r.NeighborKeys
			}
		}
	}
	return rec, nil
}

// Checkpoints is the coordinator-side table of sealed barrier snapshots:
// query → node → barrier → blob. Its holder has no recovery key, so the
// blobs are opaque to it and only ever handed back to the replacement of a
// dead node.
type Checkpoints struct {
	mu sync.Mutex
	m  map[int]map[network.NodeID]map[int][]byte
}

// Store files node id's sealed snapshot of query seq at one barrier.
func (c *Checkpoints) Store(seq int, id network.NodeID, barrier int, blob []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[int]map[network.NodeID]map[int][]byte)
	}
	byNode := c.m[seq]
	if byNode == nil {
		byNode = make(map[network.NodeID]map[int][]byte)
		c.m[seq] = byNode
	}
	if byNode[id] == nil {
		byNode[id] = make(map[int][]byte)
	}
	byNode[id][barrier] = blob
}

// ResumeBarrier picks query seq's resume point: the latest barrier every
// fleet member (the casualty included — its blob is what the replacement
// restores from) has shipped, or −1 when some node never checkpointed the
// query at all (then it restarts from initialization).
func (c *Checkpoints) ResumeBarrier(seq int, fleet []network.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := -1
	for i, id := range fleet {
		latest := -1
		for bb := range c.m[seq][id] {
			latest = max(latest, bb)
		}
		if i == 0 || latest < b {
			b = latest
		}
	}
	return b
}

// Blob returns node id's sealed snapshot of query seq at barrier, or nil.
func (c *Checkpoints) Blob(seq int, id network.NodeID, barrier int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[seq][id][barrier]
}

// Drop forgets a finished query.
func (c *Checkpoints) Drop(seq int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, seq)
}
