// Fixture for the ctxflow analyzer: a local transport with a blocking
// Recv, functions that thread ctx correctly, and the two violation shapes
// (minted roots, ctx-less functions on a Recv path).
package fixture

import "context"

type NodeID int

type Endpoint struct{}

func (Endpoint) Recv(ctx context.Context, from NodeID, tag string) ([]byte, error) {
	return nil, nil
}

var ep Endpoint

// good threads the caller's ctx: no finding.
func good(ctx context.Context) error {
	_, err := ep.Recv(ctx, 1, "t")
	return err
}

// goodClosure: closures count against the enclosing declaration, which
// has ctx: no finding.
func goodClosure(ctx context.Context) {
	go func() {
		_, _ = ep.Recv(ctx, 1, "t")
	}()
}

// detached uses the sanctioned idiom for deliberately detached lifetimes.
func detached(ctx context.Context) context.Context {
	return context.WithoutCancel(ctx)
}

func bad() error { // want `bad reaches a blocking Recv but has no context.Context parameter`
	_, err := ep.Recv(context.Background(), 1, "t") // want `context.Background\(\) minted in library code`
	return err
}

// indirect reaches Recv through one level of same-package calls.
func indirect() error { // want `indirect reaches a blocking Recv but has no context.Context parameter`
	return good(context.TODO()) // want `context.TODO\(\) minted in library code`
}

var storedCtx = context.Background() //dstress:ctx-ok — fixture escape

//dstress:ctx-ok — lifecycle helper; annotation on the func line silences rule 2
func annotated() error {
	_, err := ep.Recv(storedCtx, 1, "t")
	return err
}
