// Fixture for the tagpath analyzer: local stand-ins for the transport and
// tag helper, seeded with both sanctioned and forbidden tag constructions.
package fixture

import (
	"context"
	"errors"
	"fmt"
)

type NodeID int

type Endpoint struct{}

func (Endpoint) Send(to NodeID, tag string, payload []byte) error { return nil }
func (Endpoint) Recv(ctx context.Context, from NodeID, tag string) ([]byte, error) {
	return nil, nil
}

func Tag(parts ...any) string { return "tag" }

type trace struct{}

func (trace) Span(name string, start int) {}

func protocol(ctx context.Context, e Endpoint, qid int) error {
	// Sanctioned forms.
	if err := e.Send(1, Tag("q", qid, "blk", 0), nil); err != nil {
		return err
	}
	if err := e.Send(1, "setup", nil); err != nil { // '/'-free literal root
		return err
	}
	t := Tag("q", qid)
	if err := e.Send(1, t, nil); err != nil {
		return err
	}
	tags := []string{t}
	if _, err := e.Recv(ctx, 1, tags[0]); err != nil {
		return err
	}

	// Forbidden forms.
	if err := e.Send(1, fmt.Sprintf("q/%d/blk/0", qid), nil); err != nil { // want `tag argument of Send must derive from network.Tag`
		return err
	}
	if err := e.Send(1, "q/"+t, nil); err != nil { // want `tag argument of Send must derive from network.Tag`
		return err
	}
	if err := e.Send(1, "q/7/ot", nil); err != nil { // want `tag argument of Send must derive from network.Tag`
		return err
	}
	if _, err := e.Recv(ctx, 1, fmt.Sprintf("q/%d/x", qid)); err != nil { // want `tag argument of Recv must derive from network.Tag`
		return err
	}

	// Fabricated path outside a transport call.
	s := fmt.Sprintf("blk/%d", qid) // want `path-like string "blk/%d" built ad-hoc`
	_ = s
	u := "q/" + t // want `path-like string "q/" built ad-hoc`
	_ = u

	// Diagnostic sinks are exempt.
	var tr trace
	tr.Span(fmt.Sprintf("agg/leaf/%d", qid), 0)
	err := errors.New("boom")
	if err != nil {
		return fmt.Errorf("query q/%d failed: %w", qid, err)
	}

	// The escape hatch silences a finding.
	if err := e.Send(1, fmt.Sprintf("q/%d", qid), nil); err != nil { //dstress:tag-ok — fixture escape
		return err
	}
	v := "pre/" + t //dstress:tag-ok — fixture escape
	_ = v
	return nil
}
