package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FaultStreamBase mirrors fault.StreamBase, the first sim.SplitSeed
// substream number reserved for the fault-injection band (fault.ArmAll
// assigns StreamBase+i to the i-th injector positionally). The mirror
// exists so the linter does not link the simulation into itself; a
// test pins the two constants equal.
const FaultStreamBase = 16

// simPackage is where SplitSeed lives.
const simPackage = "repro/internal/sim"

// StreamUse records one SplitSeed derivation with a constant stream
// ID: the value, the named constant that identifies the substream's
// purpose, and where. It travels as part of StreamsFact.
type StreamUse struct {
	// Value is the stream number.
	Value uint64
	// Const is the qualified name of the stream constant
	// ("repro/internal/sweep.streamStress"). Two uses of the same
	// constant share a purpose; two constants sharing a value is the
	// collision the fleet pass reports.
	Const string
	// Pos is where the derivation is spelled; Finish reports there.
	Pos token.Pos
}

// StreamsFact is rngstream's per-package summary: every constant
// SplitSeed stream the package derives.
type StreamsFact struct {
	Streams []StreamUse
}

// AFact marks StreamsFact as a fact.
func (*StreamsFact) AFact() {}

// RngStream enforces the substream discipline around sim.SplitSeed,
// the mechanism that lets one run seed drive several decorrelated
// generators (kernel cost stream, workload jitter, fault injectors).
// The PR-2 probe bug — a read-only switch-cost probe on the kernel
// silently consuming the run RNG because no one had reserved it a
// substream — is the class this kills:
//
//  1. Every SplitSeed stream argument must be a compile-time constant
//     spelled through a named constant, so each substream purpose has
//     a trackable identity. Bare literals are flagged.
//  2. Constant streams must lie below fault.StreamBase (16): the band
//     at and above it belongs to fault.ArmAll's positional injector
//     assignment.
//  3. Non-constant stream expressions are allowed only in the
//     injector-band shape `fault.StreamBase + <index>`; anything else
//     (a stream computed from data, a reused loop variable) is
//     reported — a dynamic stream ID cannot be collision-checked.
//  4. Fleet-wide (the Finish pass over every package's StreamsFact):
//     two distinct named constants resolving to the same stream value
//     collide, and both sites are reported. Same-seed decorrelation
//     only holds while every purpose owns a distinct stream.
var RngStream = &Analyzer{
	Name: "rngstream",
	Doc: "enforce distinct, named, compile-time sim.SplitSeed substream IDs fleet-wide\n\n" +
		"Every SplitSeed derivation must use a named stream constant below\n" +
		"fault.StreamBase (16); the injector band uses StreamBase+i. Distinct constants\n" +
		"sharing a value are reported at every site, across packages.",
	Run:    runRngStream,
	Finish: finishRngStream,
}

func runRngStream(pass *Pass) error {
	var fact StreamsFact
	for _, f := range pass.Files {
		if pass.SkipFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			if !isSplitSeedCall(pass, call) {
				return true
			}
			arg := call.Args[1]
			tv, ok := pass.TypesInfo.Types[arg]
			if !ok {
				return true
			}
			if tv.Value == nil {
				if !isInjectorBandExpr(pass, arg) {
					pass.Reportf(arg.Pos(),
						"sim.SplitSeed stream ID %s is not a compile-time constant; substreams must be named constants (or fault.StreamBase+i inside the injector band) so collisions are checkable",
						pass.ExprString(arg))
				}
				return true
			}
			v, exact := constant.Uint64Val(constant.ToInt(tv.Value))
			if !exact {
				pass.Reportf(arg.Pos(), "sim.SplitSeed stream ID %s does not fit uint64", pass.ExprString(arg))
				return true
			}
			name := streamConstName(pass, arg)
			if name == "" {
				pass.Reportf(arg.Pos(),
					"sim.SplitSeed stream ID %d is a bare literal; declare a named stream constant (see the stream tables in internal/sweep/scenarios.go) so rngstream can track its purpose fleet-wide",
					v)
				return true
			}
			if v >= FaultStreamBase && !strings.HasSuffix(name, ".StreamBase") {
				pass.Reportf(arg.Pos(),
					"stream constant %s = %d lies in the fault-injector band [fault.StreamBase=%d, ∞), which fault.ArmAll assigns positionally; pick a stream below %d",
					name, v, FaultStreamBase, FaultStreamBase)
				return true
			}
			fact.Streams = append(fact.Streams, StreamUse{Value: v, Const: name, Pos: arg.Pos()})
			return true
		})
	}
	if len(fact.Streams) > 0 {
		pass.ExportPackageFact(&fact)
	}
	return nil
}

// finishRngStream is the fleet pass: with every package's stream table
// in hand, report value collisions between distinct named constants.
func finishRngStream(fp *FleetPass) error {
	type identity struct {
		name  string
		first StreamUse
	}
	byValue := make(map[uint64][]identity)
	for _, pf := range fp.PackageFacts() {
		sf, ok := pf.Fact.(*StreamsFact)
		if !ok {
			continue
		}
		for _, use := range sf.Streams {
			ids := byValue[use.Value]
			found := false
			for _, id := range ids {
				if id.name == use.Const {
					found = true
					break
				}
			}
			if !found {
				byValue[use.Value] = append(ids, identity{name: use.Const, first: use})
			}
		}
	}
	values := make([]uint64, 0, len(byValue))
	for v := range byValue {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for _, v := range values {
		ids := byValue[v]
		if len(ids) < 2 {
			continue
		}
		names := make([]string, len(ids))
		for i, id := range ids {
			names[i] = id.name
		}
		sort.Strings(names)
		for _, id := range ids {
			fp.Reportf(id.first.Pos,
				"SplitSeed stream %d is claimed by %d distinct constants (%s); same-seed substreams decorrelate only when every purpose owns a distinct stream ID — renumber one",
				v, len(ids), strings.Join(names, ", "))
		}
	}
	return nil
}

// isSplitSeedCall reports whether call invokes sim.SplitSeed.
func isSplitSeedCall(pass *Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	return ok && fn.Name() == "SplitSeed" && fn.Pkg() != nil && fn.Pkg().Path() == simPackage
}

// streamConstName returns the qualified name of the named constant the
// stream expression is spelled through, or "" for bare literals. A
// constant expression may wrap the name in arithmetic
// (streamBase+iota results, conversions); the first declared constant
// referenced supplies the identity.
func streamConstName(pass *Pass, e ast.Expr) string {
	name := ""
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || name != "" {
			return name == ""
		}
		if c, ok := pass.TypesInfo.Uses[id].(*types.Const); ok && c.Pkg() != nil {
			name = c.Pkg().Path() + "." + c.Name()
			return false
		}
		return true
	})
	return name
}

// isInjectorBandExpr reports whether e has the sanctioned dynamic
// shape: a sum (or or) whose constant side is a named constant at or
// above the injector band base — fault.ArmAll's StreamBase+uint64(i).
func isInjectorBandExpr(pass *Pass, e ast.Expr) bool {
	bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.ADD && bin.Op != token.OR) {
		return false
	}
	for _, side := range []ast.Expr{bin.X, bin.Y} {
		tv, ok := pass.TypesInfo.Types[side]
		if !ok || tv.Value == nil {
			continue
		}
		v, exact := constant.Uint64Val(constant.ToInt(tv.Value))
		if exact && v >= FaultStreamBase && streamConstName(pass, side) != "" {
			return true
		}
	}
	return false
}
