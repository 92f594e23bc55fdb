package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
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

// streamUse records one SplitSeed derivation with a constant stream
// ID.
type streamUse struct {
	value uint64
	// name is the qualified name of the stream constant
	// ("repro/internal/sweep.streamStress"). Two uses of the same
	// constant share a purpose; two constants sharing a value is the
	// collision reportStreamCollisions reports.
	name string
	pos  token.Pos
}

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
//  4. Over the whole run (reportStreamCollisions, after the last
//     package): two distinct named constants resolving to the same
//     stream value collide, and both sites are reported. Same-seed
//     decorrelation only holds while every purpose owns a distinct
//     stream.
var RngStream = &Analyzer{
	Name: "rngstream",
	Doc:  "enforce distinct, named, compile-time sim.SplitSeed substream IDs fleet-wide",
	Run:  runRngStream,
}

func runRngStream(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			if fn := pass.callee(call); fn == nil || fn.Name() != "SplitSeed" || fn.Pkg() == nil || fn.Pkg().Path() != simPackage {
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
			pass.run.streams = append(pass.run.streams, streamUse{value: v, name: name, pos: arg.Pos()})
			return true
		})
	}
}

// reportStreamCollisions runs once, with every package's streams in
// the table: each value claimed by two or more distinct named
// constants is reported at the first site of every claimant, in
// whichever package that lies.
func (r *run) reportStreamCollisions() {
	claimants := make(map[uint64][]string) // value -> the distinct constants spelling it
	var firsts []streamUse                 // each constant's first use, in visiting order
	for _, use := range r.streams {
		if !slices.Contains(claimants[use.value], use.name) {
			claimants[use.value] = append(claimants[use.value], use.name)
			firsts = append(firsts, use)
		}
	}
	for _, use := range firsts {
		names := claimants[use.value]
		if len(names) < 2 {
			continue
		}
		slices.Sort(names)
		r.reportf(RngStream.Name, use.pos,
			"SplitSeed stream %d is claimed by %d distinct constants (%s); same-seed substreams decorrelate only when every purpose owns a distinct stream ID — renumber one",
			use.value, len(names), strings.Join(names, ", "))
	}
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
