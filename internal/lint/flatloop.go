package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// FlatLoop enforces the fast-path kernel contract: the hot replay
// functions in the fastpath package (run*, lookup*, flush*) replay packed
// traces over flattened state tables, so their bodies must not make
// dynamic dispatch through an interface — a predictor.Predictor,
// bht.Store, or history.Scheme method call in the hot loop would
// reintroduce exactly the per-event indirection the kernel exists to
// eliminate, and would silently erode the benchmarked events/sec without
// failing any correctness test. Interface dispatch belongs in the
// cold setup/teardown paths (New, seed, writeback). The one sanctioned
// exception is context.Context: the amortised ctx.Err() cancellation poll
// is part of the hot loop by design (ctxpoll contract).
var FlatLoop = &Analyzer{
	Name: "flatloop",
	Doc: "fastpath hot functions (run*/lookup*/flush*) must not call " +
		"interface methods other than context.Context",
	Packages: []string{"fastpath"},
	Run:      runFlatLoop,
}

// hotPath describes one package's per-event path: the function-name
// prefixes that form it, what its loops are called in findings, and the
// benchmark that guards its throughput.
type hotPath struct {
	prefixes []string
	loop     string
	bench    string
}

// hotPaths maps package names to their hot paths: the kernel's replay
// loops and the interpreter core that generates the traces they replay.
var hotPaths = map[string]hotPath{
	"fastpath": {[]string{"run", "lookup", "flush"}, "fast-path", "BenchmarkKernelVsRunner"},
	"cpu":      {[]string{"exec"}, "interpreter", "BenchmarkCapture"},
}

func isHotFuncName(pkg, name string) bool {
	for _, p := range hotPaths[pkg].prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func runFlatLoop(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotFuncName(pass.Pkg.Name(), fd.Name.Name) {
				continue
			}
			// Function literals inside a hot function (e.g. the goroutine
			// bodies runSharded spawns) execute on the hot path too, so the
			// whole body is walked without pruning.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := funcObj(pass.TypesInfo, call)
				if fn == nil {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() == nil {
					return true
				}
				recv := sig.Recv().Type()
				if _, isIface := recv.Underlying().(*types.Interface); !isIface {
					return true
				}
				if isContextType(recv) {
					return true
				}
				diags = append(diags, Diagnostic{
					Pos: call.Pos(),
					Message: "interface method call " + types.TypeString(recv, types.RelativeTo(pass.Pkg)) +
						"." + fn.Name() + " in fast-path hot function " + fd.Name.Name +
						"; flatten the state into arrays or move the dispatch to setup/teardown",
				})
				return true
			})
		}
	}
	return diags
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
