package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// detlint enforces the determinism contract of the simulator domain:
// every run of an experiment must be bit-for-bit reproducible, so
// simulator-side code must draw time, concurrency and randomness only
// from the simulation substrate (sim.Env / sim.Proc / a seeded
// rand.Rand), and must never let Go's randomized map iteration order
// reach an output, a collected slice, or the event heap.
//
// Rules:
//
//   - det-time: wall-clock reads or real sleeps from package time
//     (Now, Sleep, Since, Until, After, AfterFunc, Tick, NewTicker,
//     NewTimer). Virtual time is sim.Time; waiting is Proc.Wait.
//   - det-rand: the global math/rand (or math/rand/v2, crypto/rand)
//     source. Constructing a seeded generator (rand.New,
//     rand.NewSource, ...) is allowed — that is the deterministic way.
//   - det-go: a real `go` statement, or iter.Pull/iter.Pull2, whose
//     sequence runs on a hidden coroutine goroutine. Simulation
//     processes are spawned with Env.Go, which interleaves them
//     deterministically.
//   - det-sync: sync/sync.atomic primitives, channel types and
//     operations, and select. Blocking must go through sim.Signal,
//     sim.Queue or sim.Resource so wake order is simulated.
//   - det-map-order: a `range` over a map whose body is
//     order-sensitive — it emits output, appends to a slice declared
//     outside the loop (unless the slice is sorted immediately after
//     the loop), or schedules events / emits trace records. Iterate a
//     sorted key slice instead.

// bannedTimeFuncs are the package time symbols that read the wall
// clock or block in real time. Pure types/constants (time.Duration,
// time.Nanosecond) are not listed: they are values, not clocks.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// allowedRandFuncs are the math/rand constructors that produce a
// caller-seeded (hence deterministic) generator.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// Detlint runs the determinism rules over one package.
func Detlint(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		d := &detWalker{pkg: p, file: f}
		d.walk()
		out = append(out, d.findings...)
	}
	return out
}

type detWalker struct {
	pkg      *Package
	file     *ast.File
	findings []Finding
	// parents[i] is the ancestor stack at the current visit.
	stack []ast.Node
}

func (d *detWalker) report(pos token.Pos, rule, msg, hint string) {
	d.findings = append(d.findings, Finding{
		Pos: d.pkg.Position(pos), Rule: rule, Msg: msg, Hint: hint,
	})
}

func (d *detWalker) walk() {
	ast.Inspect(d.file, func(n ast.Node) bool {
		if n == nil {
			d.stack = d.stack[:len(d.stack)-1]
			return true
		}
		d.visit(n)
		d.stack = append(d.stack, n)
		return true
	})
}

func (d *detWalker) visit(n ast.Node) {
	switch n := n.(type) {
	case *ast.GoStmt:
		d.report(n.Pos(), RuleDetGo,
			"real goroutine in simulator-domain code",
			"spawn a simulation process with Env.Go")
	case *ast.SendStmt:
		d.report(n.Pos(), RuleDetSync,
			"channel send in simulator-domain code",
			"signal through sim.Signal/sim.Queue")
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			d.report(n.Pos(), RuleDetSync,
				"channel receive in simulator-domain code",
				"block on sim.Signal/sim.Queue instead")
		}
	case *ast.SelectStmt:
		d.report(n.Pos(), RuleDetSync,
			"select statement in simulator-domain code",
			"simulated waiting uses sim.Signal/sim.Queue")
	case *ast.ChanType:
		d.report(n.Pos(), RuleDetSync,
			"channel type in simulator-domain code",
			"model the handoff with sim primitives")
	case *ast.CallExpr:
		if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
			if obj, ok := d.pkg.Info.Uses[id]; ok {
				if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
					d.report(n.Pos(), RuleDetSync,
						"channel close in simulator-domain code", "")
				}
			}
		}
	case *ast.SelectorExpr:
		d.visitSelector(n)
	case *ast.RangeStmt:
		d.visitRange(n)
	}
}

// visitSelector flags pkg.Sym references into banned packages.
func (d *detWalker) visitSelector(sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := d.pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	path := pn.Imported().Path()
	name := sel.Sel.Name
	switch path {
	case "time":
		if bannedTimeFuncs[name] {
			d.report(sel.Pos(), RuleDetTime,
				fmt.Sprintf("time.%s reads the wall clock", name),
				"virtual time: sim.Env.Now / sim.Proc.Wait")
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[name] {
			d.report(sel.Pos(), RuleDetRand,
				fmt.Sprintf("global %s.%s is seeded nondeterministically", pathBase(path), name),
				"use a rand.New(rand.NewSource(seed)) carried by the harness")
		}
	case "crypto/rand":
		d.report(sel.Pos(), RuleDetRand,
			"crypto/rand is nondeterministic by design",
			"use a seeded math/rand.Rand")
	case "iter":
		if name == "Pull" || name == "Pull2" {
			d.report(sel.Pos(), RuleDetGo,
				fmt.Sprintf("iter.%s runs its sequence on a hidden coroutine goroutine", name),
				"spawn a simulation process with Env.Go, or range over the sequence")
		}
	case "sync", "sync/atomic":
		d.report(sel.Pos(), RuleDetSync,
			fmt.Sprintf("%s.%s in simulator-domain code", pathBase(path), name),
			"one process runs at a time; use plain fields and sim primitives")
	}
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// visitRange flags order-sensitive map iteration. Ranging a map is
// fine when the body only aggregates (sums, max, set membership); it
// is a determinism bug when iteration order can reach an observable
// ordering — output, an appended slice that escapes unsorted, or the
// event heap.
func (d *detWalker) visitRange(rng *ast.RangeStmt) {
	t := d.pkg.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		// Receiving from a channel via range is a det-sync matter.
		if _, isChan := t.Underlying().(*types.Chan); isChan {
			d.report(rng.Pos(), RuleDetSync,
				"range over channel in simulator-domain code", "")
		}
		return
	}
	var sensitive []string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "append" && len(call.Args) > 0 {
				if v := d.outerVar(call.Args[0], rng); v != nil && !d.sortedAfter(rng, v) {
					sensitive = append(sensitive,
						fmt.Sprintf("appends to %q declared outside the loop", v.Name()))
				}
			}
		case *ast.SelectorExpr:
			if d.isOutputCall(fun) {
				sensitive = append(sensitive,
					fmt.Sprintf("emits output via %s", fun.Sel.Name))
			} else if isSchedulingName(fun.Sel.Name) {
				sensitive = append(sensitive,
					fmt.Sprintf("schedules/records via %s", fun.Sel.Name))
			}
		}
		return true
	})
	if len(sensitive) > 0 {
		d.report(rng.Pos(), RuleDetMapOrder,
			"map iteration order reaches an observable ordering: "+strings.Join(sensitive, "; "),
			"iterate a sorted key slice, or sort the collected slice right after the loop")
	}
}

// isOutputCall reports whether sel is a printing/writing call: fmt
// output functions, or Write*/print-style methods.
func (d *detWalker) isOutputCall(sel *ast.SelectorExpr) bool {
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := d.pkg.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
			n := sel.Sel.Name
			return strings.HasPrefix(n, "Print") || strings.HasPrefix(n, "Fprint")
		}
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Printf", "Tracef":
		return true
	}
	return false
}

// isSchedulingName reports method names that feed the event heap or
// the trace stream, where call order is observable.
func isSchedulingName(name string) bool {
	switch name {
	case "Schedule", "Emit", "Go", "Broadcast", "Push", "Publish":
		return true
	}
	return false
}

// outerVar resolves expr to a variable declared outside the range
// statement, or nil.
func (d *detWalker) outerVar(expr ast.Expr, rng *ast.RangeStmt) *types.Var {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := d.pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	if v.Pos() >= rng.Pos() && v.Pos() < rng.End() {
		return nil // declared inside the loop: order can't escape
	}
	return v
}

// sortedAfter reports whether the statement list containing rng sorts
// v (sort.* or slices.Sort*) after the loop — the collect-then-sort
// idiom, which is deterministic.
func (d *detWalker) sortedAfter(rng *ast.RangeStmt, v *types.Var) bool {
	// Find the innermost block containing rng from the ancestor stack.
	var stmts []ast.Stmt
	for i := len(d.stack) - 1; i >= 0; i-- {
		switch b := d.stack[i].(type) {
		case *ast.BlockStmt:
			stmts = b.List
		case *ast.CaseClause:
			stmts = b.Body
		default:
			continue
		}
		break
	}
	seen := false
	for _, s := range stmts {
		if s == ast.Stmt(rng) {
			seen = true
			continue
		}
		if !seen {
			continue
		}
		sorted := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := d.pkg.Info.Uses[id].(*types.PkgName)
			if !ok || (pn.Imported().Path() != "sort" && pn.Imported().Path() != "slices") {
				return true
			}
			for _, a := range call.Args {
				ast.Inspect(a, func(m ast.Node) bool {
					if aid, ok := m.(*ast.Ident); ok && d.pkg.Info.Uses[aid] == v {
						sorted = true
					}
					return true
				})
			}
			return true
		})
		if sorted {
			return true
		}
	}
	return false
}
