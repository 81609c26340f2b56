package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

func ruleNakedPanic() Rule {
	return Rule{
		Name: "nakedpanic",
		Doc:  "panic in library code only inside functions whose doc comment states the panic contract",
		Run:  runNakedPanic,
	}
}

// runNakedPanic enforces the PR-3 failure model: library code returns
// errors; panicking is reserved for documented programming-error
// contracts (pipeline.Graph.Add on a malformed graph, rng.Intn on
// non-positive n, a failed task in a Study's band pass). A panic call
// is clean only when the doc comment of the enclosing top-level
// function states the contract (mentions "panic"); everything else
// must return an error or carry an allow annotation. Function
// literals inherit the contract of the declaration they appear in —
// Go has no nested named functions, so the enclosing FuncDecl is the
// documented API boundary.
func runNakedPanic(p *Pass) {
	p.In.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, stack []ast.Node) {
		call := n.(*ast.CallExpr)
		if !isBuiltinPanic(p, call) {
			return
		}
		var fd *ast.FuncDecl
		for _, s := range stack {
			if d, ok := s.(*ast.FuncDecl); ok {
				fd = d
				break
			}
		}
		switch {
		case fd != nil && docMentionsPanic(fd):
		case fd != nil:
			p.Reportf(call.Pos(), "nakedpanic",
				"panic in %s, whose doc comment does not state a panic contract; return an error, or document why the panic is a programming-error report", fd.Name.Name)
		default:
			p.Reportf(call.Pos(), "nakedpanic",
				"panic outside any declared function; return an error instead")
		}
	})
}

// isBuiltinPanic reports whether call invokes the predeclared panic
// builtin (not a shadowing identifier).
func isBuiltinPanic(p *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// docMentionsPanic reports whether the function's doc comment states a
// panic contract.
func docMentionsPanic(fd *ast.FuncDecl) bool {
	return fd.Doc != nil && strings.Contains(strings.ToLower(fd.Doc.Text()), "panic")
}
