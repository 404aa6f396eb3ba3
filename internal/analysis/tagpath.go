package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// TagPath enforces the tag discipline that keeps concurrent queries in
// disjoint namespaces.
//
// Every protocol message travels under a hierarchical tag rooted at the
// query id ("q/7/blk/3/ot/1/2/..."), and the OT substrate derives its PRF
// pad streams from those same tags. A hand-built tag — fmt.Sprintf, string
// concatenation — can silently escape the query's namespace, cross-talk
// with another in-flight query, or collide two sessions onto one pad
// stream. So in protocol packages:
//
//  1. the tag argument of a transport Send/Recv must be a
//     network.Tag/TagPrefix call, a variable holding one, or a
//     '/'-free literal (a fixed root like "setup" is namespace-safe);
//  2. no other expression may fabricate a '/'-separated path string,
//     except as a direct argument to a diagnostic sink (span names, error
//     text, logging) where the string never reaches the wire.
//
// //dstress:tag-ok silences either check on a line.
var TagPath = &Analyzer{
	Name: "tagpath",
	Doc:  "protocol-message tags must derive from network.Tag, not ad-hoc formatting",
	Run:  runTagPath,
}

// tagBuilders are the sanctioned tag constructors (matched by name: the
// repo has exactly one Tag helper family, in internal/network).
var tagBuilders = map[string]bool{"Tag": true, "TagPrefix": true}

// diagSinks are method names (on any receiver) that take strings never
// becoming wire tags: span/trace names and error text.
var diagSinks = map[string]bool{
	"Span": true, "SetQuery": true, // obs.Trace
	"Errorf": true, "New": true, // fmt / errors
}

func runTagPath(pass *Pass) error {
	for _, f := range pass.Files {
		walkWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if ok {
				checkTransportTag(pass, call)
			}
			checkFabricatedPath(pass, n, stack)
			return true
		})
	}
	return nil
}

// checkTransportTag validates the tag argument of Send/Recv calls.
func checkTransportTag(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	name := fn.Name()
	if name != "Send" && name != "Recv" {
		return
	}
	idx := tagParamIndex(fn)
	if idx < 0 || idx >= len(call.Args) {
		return
	}
	arg := ast.Unparen(call.Args[idx])
	if tagExprOK(arg) || pass.Annotated(arg.Pos(), "tag-ok") {
		return
	}
	pass.Reportf(arg.Pos(), "tag argument of %s must derive from network.Tag (or a variable holding one), not %s", name, describeExpr(arg))
}

// tagParamIndex finds the parameter named "tag" (of type string) in the
// callee's signature, or -1.
func tagParamIndex(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if p.Name() == "tag" {
			if b, ok := p.Type().Underlying().(*types.Basic); ok && b.Kind() == types.String {
				return i
			}
		}
	}
	return -1
}

// tagExprOK reports whether the expression is a sanctioned tag source.
func tagExprOK(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.Ident:
			return tagBuilders[fun.Name]
		case *ast.SelectorExpr:
			return tagBuilders[fun.Sel.Name]
		}
		return false
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		// A variable, field or element holding an already-derived tag.
		return true
	case *ast.BasicLit:
		s, err := strconv.Unquote(e.Value)
		return err == nil && !strings.Contains(s, "/")
	}
	return false
}

// checkFabricatedPath flags expressions that fabricate a '/'-separated
// path string in a protocol package: Sprintf/Sprint with '/' in the format
// and '+'-concatenation involving a '/' literal.
func checkFabricatedPath(pass *Pass, n ast.Node, stack []ast.Node) {
	var lit string
	switch n := n.(type) {
	case *ast.CallExpr:
		fn := calleeFunc(pass.TypesInfo, n)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" ||
			(fn.Name() != "Sprintf" && fn.Name() != "Sprint") || len(n.Args) == 0 {
			return
		}
		bl, ok := ast.Unparen(n.Args[0]).(*ast.BasicLit)
		if !ok || bl.Kind != token.STRING {
			return
		}
		s, err := strconv.Unquote(bl.Value)
		if err != nil || !strings.Contains(s, "/") {
			return
		}
		lit = s
	case *ast.BinaryExpr:
		if n.Op != token.ADD {
			return
		}
		// Only the outermost + of a concat chain reports.
		if parent, ok := top(stack).(*ast.BinaryExpr); ok && parent.Op == token.ADD {
			return
		}
		s, ok := slashLiteralInConcat(n)
		if !ok {
			return
		}
		lit = s
	default:
		return
	}
	if underDiagSink(pass, stack) || underTransportTag(pass, stack) {
		// Diagnostic strings never hit the wire; transport tag arguments
		// are checkTransportTag's finding, not a duplicate one here.
		return
	}
	if pass.Annotated(n.Pos(), "tag-ok") {
		return
	}
	pass.Reportf(n.Pos(), "path-like string %q built ad-hoc in a protocol package; derive tags via network.Tag (or annotate non-tag uses with //dstress:tag-ok)", lit)
}

// slashLiteralInConcat reports whether a string '+' chain contains a
// literal with '/'.
func slashLiteralInConcat(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return "", false
		}
		if s, ok := slashLiteralInConcat(e.X); ok {
			return s, true
		}
		return slashLiteralInConcat(e.Y)
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(e.Value)
		if err == nil && strings.Contains(s, "/") {
			return s, true
		}
	}
	return "", false
}

// underDiagSink reports whether some enclosing call is a diagnostic sink
// (span names, error construction, panics, logging).
func underDiagSink(pass *Pass, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		call, ok := stack[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			return true
		}
		if fn := calleeFunc(pass.TypesInfo, call); fn != nil && sinkFunc(fn) {
			return true
		}
	}
	return false
}

// sinkFunc reports whether the callee only consumes its strings for
// diagnostics.
func sinkFunc(fn *types.Func) bool {
	if pkg := fn.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "fmt":
			return fn.Name() == "Errorf" // Sprintf is NOT a sink: its result flows onward
		case "errors", "log/slog", "log":
			return true
		}
		if strings.HasSuffix(pkg.Path(), "internal/obs") {
			return true
		}
	}
	return diagSinks[fn.Name()]
}

// underTransportTag reports whether the innermost enclosing call is a
// transport Send/Recv (whose tag argument checkTransportTag owns).
func underTransportTag(pass *Pass, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if call, ok := stack[i].(*ast.CallExpr); ok {
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return false
			}
			name := fn.Name()
			return (name == "Send" || name == "Recv") && tagParamIndex(fn) >= 0
		}
	}
	return false
}

func top(stack []ast.Node) ast.Node {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

func describeExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.CallExpr:
		if fn, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			return "a " + fn.Sel.Name + " call"
		}
		if fn, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			return "a " + fn.Name + " call"
		}
		return "a function call"
	case *ast.BinaryExpr:
		return "string concatenation"
	case *ast.BasicLit:
		return "a '/'-separated literal"
	}
	return "an ad-hoc expression"
}
