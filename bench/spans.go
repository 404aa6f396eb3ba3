package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"dstress/internal/obs"
)

// span is one recorded interval of the traced pass. The benchmark records
// a span around every call it makes into a layer; the spans the program
// records itself (obs.Trace) are adopted under the query span that caused
// them, so one tree covers a query from the caller down to a block MPC.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = no parent
	Name   string `json:"name"`
	// Query is shared by every span of one query ("<workload>/<n>"); empty
	// for spans outside a query (open, close, calibration).
	Query string `json:"query,omitempty"`
	// Node is the recording node for adopted program spans; 0 is the
	// driving process.
	Node  int   `json:"node,omitempty"`
	Start int64 `json:"start_ns"` // since the recorder's epoch
	End   int64 `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so the untraced pass runs the same code.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id and the function that closes it.
func (r *recorder) begin(parent int, name, query string) (int, func()) {
	if r == nil {
		return 0, func() {}
	}
	start := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Query: query, Start: start, End: start})
	r.mu.Unlock()
	return id, func() {
		end := time.Since(r.epoch).Nanoseconds()
		r.mu.Lock()
		r.spans[id-1].End = end
		r.mu.Unlock()
	}
}

// adopt files the program's own spans of one query under the benchmark's
// span of that query. Parent links follow the program's span taxonomy
// (obsParent), per recording node.
func (r *recorder) adopt(querySpan int, query string, traceEpoch time.Time, spans []obs.Span) {
	if r == nil || len(spans) == 0 {
		return
	}
	shift := traceEpoch.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	type key struct {
		node int32
		name string
	}
	ids := make(map[key]int, len(spans))
	first := len(r.spans)
	for _, s := range spans {
		id := len(r.spans) + 1
		name := stripQueryRoot(s.Name)
		ids[key{s.Node, name}] = id
		r.spans = append(r.spans, span{
			ID: id, Parent: querySpan, Name: name, Query: query, Node: int(s.Node),
			Start: s.Start + shift, End: s.Start + s.Dur + shift,
		})
	}
	for i := first; i < len(r.spans); i++ {
		if p, ok := ids[key{int32(r.spans[i].Node), obsParent(r.spans[i].Name)}]; ok {
			r.spans[i].Parent = p
		}
	}
}

// stripQueryRoot removes the "q/<n>/" (and recovery-attempt "a/<n>/")
// wire-tag prefix cluster nodes put on transfer span names, so both
// engines share one taxonomy.
func stripQueryRoot(name string) string {
	for _, root := range []string{"q/", "a/"} {
		if strings.HasPrefix(name, root) {
			rest := name[len(root):]
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				name = rest[i+1:]
			}
		}
	}
	return name
}

// obsParent names the span that encloses a program span: block MPCs run
// inside their iteration's compute step, transfers inside its communicate
// step, aggregation stages inside the aggregation phase. Phase-level spans
// have no program parent (the query span adopts them).
func obsParent(name string) string {
	parts := strings.Split(name, "/")
	switch {
	case len(parts) == 5 && parts[0] == "iter" && parts[2] == "blk":
		return "iter/" + parts[1] + "/compute"
	case len(parts) >= 4 && parts[0] == "tx":
		return "iter/" + parts[1] + "/communicate"
	case parts[0] == "agg":
		return "phase/agg"
	case parts[0] == "init" && len(parts) > 1:
		return "phase/init"
	}
	return ""
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (parallel blocks) and stick out of the parent (clock alignment); both
// are handled by clipping and merging.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][][2]int64)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[p.ID] = append(children[p.ID], [2]int64{lo, hi})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, end int64
		end = s.Start
		for _, c := range iv {
			if c[1] <= end {
				continue
			}
			covered += c[1] - max(c[0], end)
			end = c[1]
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans, with their self times, as one JSON document.
func (r *recorder) write(path, workload string) error {
	spans := r.snapshot()
	self := selfTimes(spans)
	type row struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{span: s, SelfNS: self[s.ID]}
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []row  `json:"spans"`
	}{workload, rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
