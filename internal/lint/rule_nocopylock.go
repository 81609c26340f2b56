package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

func ruleNoCopyLock() Rule {
	return Rule{
		Name: "nocopylock",
		Doc:  "no value copies (assignment, range, call-by-value, channel send) of types containing sync.Mutex/Once and friends",
		Run:  runNoCopyLock,
	}
}

// runNoCopyLock enforces copy safety for lock-holding types: any type
// whose type graph reaches a sync.Mutex, RWMutex, Once, WaitGroup,
// Cond, Map or Pool by value must never be copied — a copied sync.Once
// re-arms, a copied Mutex forks its lock state. A type that must copy
// freely keeps such state behind a pointer; this rule is what keeps
// the pointed-to value from being dereferenced into a copy.
func runNoCopyLock(p *Pass) {
	c := &lockChecker{p: p, memo: map[types.Type]string{}}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					break // multi-value call/comma-ok: RHS values are fresh
				}
				for i, rhs := range n.Rhs {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						continue // discarded, no second copy comes alive
					}
					c.checkCopy(rhs, "assignment copies")
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					c.checkCopy(v, "variable initialization copies")
				}
			case *ast.SendStmt:
				// A worker-pool dispatch that sends a task struct with an
				// embedded WaitGroup forks the group: Done on the received
				// copy never releases the sender's Wait.
				c.checkCopy(n.Value, "channel send copies")
			case *ast.RangeStmt:
				if n.Value != nil {
					if path := c.lockPath(p.Info.TypeOf(n.Value)); path != "" {
						p.Reportf(n.Value.Pos(), "nocopylock",
							"range value copies %s per iteration; range over indices or pointers instead", path)
					}
				}
			case *ast.FuncDecl:
				if n.Recv != nil {
					c.checkFieldList(n.Recv, "receiver")
				}
				c.checkFieldList(n.Type.Params, "parameter")
			case *ast.FuncLit:
				c.checkFieldList(n.Type.Params, "parameter")
			case *ast.CallExpr:
				verb := "call passes"
				if p.Info.Types[n.Fun].IsType() {
					verb = "conversion copies" // T(x) has call-copy semantics
				}
				for _, arg := range n.Args {
					c.checkCopy(arg, verb)
				}
			}
			return true
		})
	}
}

type lockChecker struct {
	p    *Pass
	memo map[types.Type]string
}

// checkCopy reports when expr reads an existing lock-containing value
// by value. Fresh values — composite literals, function-call results —
// are moves, not copies, and stay legal (matching go vet's copylocks
// judgment).
func (c *lockChecker) checkCopy(expr ast.Expr, verb string) {
	e := ast.Unparen(expr)
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr, *ast.TypeAssertExpr:
	default:
		return
	}
	if id, ok := e.(*ast.Ident); ok {
		if _, isVar := c.p.Info.Uses[id].(*types.Var); !isVar {
			return
		}
	}
	if path := c.lockPath(c.p.Info.TypeOf(e)); path != "" {
		c.p.Reportf(expr.Pos(), "nocopylock", "%s %s by value", verb, path)
	}
}

// checkFieldList flags by-value lock-containing receivers/parameters.
func (c *lockChecker) checkFieldList(fl *ast.FieldList, what string) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		if path := c.lockPath(c.p.Info.TypeOf(field.Type)); path != "" {
			c.p.Reportf(field.Pos(), "nocopylock",
				"%s receives %s by value; use a pointer", what, path)
		}
	}
}

// lockPath returns a human-readable containment chain ("prep contains
// sync.Once") when t's type graph holds a lock by value, or
// "" when t copies safely. Pointers, slices, maps, channels, funcs and
// interfaces break the chain: copying them shares, not forks, the
// pointed-to state.
func (c *lockChecker) lockPath(t types.Type) string {
	if t == nil {
		return ""
	}
	if path, done := c.memo[t]; done {
		return path
	}
	c.memo[t] = "" // in-progress marker; also the final answer for cycles
	path := c.lockPathUncached(t)
	c.memo[t] = path
	return path
}

func (c *lockChecker) lockPathUncached(t types.Type) string {
	switch t := t.(type) {
	case *types.Alias:
		return c.lockPath(types.Unalias(t))
	case *types.Named:
		if obj := t.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "Once", "WaitGroup", "Cond", "Map", "Pool":
				return "sync." + obj.Name()
			}
		}
		if inner := c.lockPath(t.Underlying()); inner != "" {
			return fmt.Sprintf("%s (contains %s)", t.Obj().Name(), inner)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if inner := c.lockPath(t.Field(i).Type()); inner != "" {
				return inner
			}
		}
	case *types.Array:
		return c.lockPath(t.Elem())
	}
	return ""
}
