package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floatEqScope lists the GIS-kernel packages bound by diffcheck's
// ≤1-ulp equivalence contract. Inside them an ad-hoc `==`/`!=` on
// floats is a latent divergence between the optimized and reference
// code paths, so every such comparison must carry an allow annotation
// stating why exact equality is the intended semantics (sentinel
// values, degeneracy tests on exact arithmetic, bit-identical cache
// keys, ...).
var floatEqScope = []string{
	"fivealarms/internal/geom",
	"fivealarms/internal/raster",
	"fivealarms/internal/proj",
	"fivealarms/internal/grid",
}

func ruleFloatEq() Rule {
	return Rule{
		Name: "floateq",
		Doc:  "==/!= on float operands in the GIS kernel packages requires an allow annotation",
		Run:  runFloatEq,
	}
}

func runFloatEq(p *Pass) {
	inScope := false
	for _, prefix := range floatEqScope {
		if pathIsUnder(p.Path, prefix) {
			inScope = true
			break
		}
	}
	if !inScope {
		return
	}
	p.In.Preorder([]ast.Node{(*ast.BinaryExpr)(nil)}, func(n ast.Node) {
		be := n.(*ast.BinaryExpr)
		if be.Op != token.EQL && be.Op != token.NEQ {
			return
		}
		if isFloat(p, be.X) || isFloat(p, be.Y) {
			p.Reportf(be.OpPos, "floateq",
				"%s on float operands; exact float equality diverges from diffcheck's ulp contract — use an epsilon, restructure, or annotate why exactness is intended", be.Op)
		}
	})
}

// isFloat reports whether the expression's type is (an alias of) a
// floating-point basic type. Struct comparisons are out of scope even
// when the struct holds floats: they compare identity of whole values,
// which is exactly what the ring-closing vertex test relies on.
func isFloat(p *Pass, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
