package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context threading on the receive path.
//
// Query cancellation — deadline, abort, deployment teardown — propagates
// exclusively through context.Context into Transport.Recv; a function that
// reaches Recv without taking a ctx has pinned every blocking receive
// under it to context.Background and made its subtree uncancelable. Two
// rules:
//
//  1. library code does not mint context.Background()/context.TODO():
//     the caller's ctx (or context.WithoutCancel(ctx) for deliberately
//     detached lifetimes) is always available and always right;
//  2. a function that calls a Recv method (directly, or through one
//     level of same-package calls) declares a context.Context parameter.
//
// //dstress:ctx-ok silences either rule on a line (for rule 2: on the
// `func` line).
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "functions on a Recv path must take a context.Context and not mint Background/TODO",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	// Rule 1: no minted roots.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return true
			}
			if name := fn.Name(); (name == "Background" || name == "TODO") && !pass.Annotated(call.Pos(), "ctx-ok") {
				pass.Reportf(call.Pos(), "context.%s() minted in library code; thread the caller's ctx (or context.WithoutCancel(ctx) for a detached lifetime)", name)
			}
			return true
		})
	}

	// Rule 2: collect, per function declaration, whether it reaches a
	// ctx-taking Recv and which same-package functions it calls.
	// Closures are attributed to their enclosing declaration: the ctx has
	// to enter through the declared function either way.
	type funcFacts struct {
		decl        *ast.FuncDecl
		reachesRecv bool
		calls       map[*types.Func]bool
	}
	facts := map[*types.Func]*funcFacts{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[decl.Name].(*types.Func)
			if obj == nil {
				continue
			}
			ff := &funcFacts{decl: decl, calls: map[*types.Func]bool{}}
			facts[obj] = ff
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass.TypesInfo, call)
				if fn == nil {
					return true
				}
				if isRecvLike(fn) {
					ff.reachesRecv = true
				}
				if fn.Pkg() == pass.Pkg {
					ff.calls[fn] = true
				}
				return true
			})
		}
	}
	for _, ff := range facts {
		needs := ff.reachesRecv
		if !needs {
			// One level of same-package transitivity: calling a function
			// that itself calls Recv still parks a receive under us.
			for callee := range ff.calls {
				if cf := facts[callee]; cf != nil && cf.reachesRecv {
					needs = true
					break
				}
			}
		}
		if !needs || hasCtxParam(pass, ff.decl) || pass.Annotated(ff.decl.Pos(), "ctx-ok") {
			continue
		}
		pass.Reportf(ff.decl.Name.Pos(), "%s reaches a blocking Recv but has no context.Context parameter", ff.decl.Name.Name)
	}
	return nil
}

// isRecvLike reports whether fn is a transport receive: named Recv with a
// leading context.Context parameter.
func isRecvLike(fn *types.Func) bool {
	if fn.Name() != "Recv" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	return isContextType(sig.Params().At(0).Type())
}

// hasCtxParam reports whether the declaration takes a context.Context.
func hasCtxParam(pass *Pass, decl *ast.FuncDecl) bool {
	if decl.Type.Params == nil {
		return false
	}
	for _, field := range decl.Type.Params.List {
		if t := pass.TypesInfo.Types[field.Type].Type; t != nil && isContextType(t) {
			return true
		}
	}
	return false
}
