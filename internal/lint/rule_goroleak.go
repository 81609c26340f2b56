package lint

import (
	"go/ast"
	"go/types"
)

func ruleGoroLeak() Rule {
	return Rule{
		Name: "goroleak",
		Doc:  "go statements must tie the goroutine's lifetime to a context.Context or a sync.WaitGroup",
		Run:  runGoroLeak,
	}
}

// runGoroLeak enforces the PR-3/PR-7 no-leak contract statically: a
// spawned goroutine must have a visible owner that bounds its
// lifetime. The recognized owners are the ones every audited spawn
// site in the tree uses — a context.Context the body watches, or a
// sync.WaitGroup it signals. A `go` statement none of whose
// referenced values is context- or WaitGroup-typed has no such owner:
// nothing can wait for it or stop it, and the chaos suite's
// goroutine-leak assertions can only catch the schedules a test
// happens to run.
func runGoroLeak(p *Pass) {
	p.In.Preorder([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node) {
		gs := n.(*ast.GoStmt)
		if tiedGoroutine(p, gs.Call) {
			return
		}
		p.Reportf(gs.Pos(), "goroleak",
			"goroutine is not tied to a context.Context or sync.WaitGroup; nothing bounds its lifetime — thread an owner, or annotate why it provably terminates")
	})
}

// tiedGoroutine reports whether any expression in the spawned call —
// the callee, its arguments, or a function literal's body — has a
// lifetime-owner type: context.Context, or sync.WaitGroup (by value,
// pointer, or as a selected struct field).
func tiedGoroutine(p *Pass, call *ast.CallExpr) bool {
	tied := false
	ast.Inspect(call, func(n ast.Node) bool {
		if tied {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if t := p.Info.TypeOf(e); t != nil && isLifetimeOwner(t) {
			tied = true
			return false
		}
		return true
	})
	return tied
}

// isLifetimeOwner reports whether t is context.Context or
// (*)sync.WaitGroup.
func isLifetimeOwner(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "context.Context", "sync.WaitGroup":
		return true
	}
	return false
}
