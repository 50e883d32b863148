package analysis

import (
	"go/types"
	"sort"
	"strings"
	"testing"
)

// reachKeep lists the functions the module keeps although no
// production root reaches them, each with its reason. They are rooted
// too, so what only they call (rbtree.Tree.Check's check) needs no
// entry of its own. Labels are reachLabel's.
var reachKeep = map[string]string{
	"internal/fs.FS.Rename":                  "syscall surface the model-based syscall fuzzer is to drive",
	"internal/fs.FS.Truncate":                "syscall surface the model-based syscall fuzzer is to drive",
	"internal/fs.FS.SyncJournal":             "syscall surface the model-based syscall fuzzer is to drive",
	"internal/netsim.Net.SocketClose":        "syscall surface the model-based syscall fuzzer is to drive",
	"internal/kernel.Kernel.AppFree":         "syscall surface the model-based syscall fuzzer is to drive",
	"internal/policy.KLOCs.SetFastMemLimit":  "the paper's Table 2 interface (sys_kloc_memsize)",
	"internal/kloc.Knode.IterCache":          "the paper's Table 2 interface (itr_knode_cache)",
	"internal/kloc.Knode.IterSlab":           "the paper's Table 2 interface (itr_knode_slab)",
	"internal/kloc.Registry.FindCPU":         "the paper's Table 2 interface (find_cpu)",
	"internal/rbtree.Tree.Check":             "the red-black invariant oracle the rbtree tests run after every step",
	"internal/metrics.LifetimeTracker.Class": "the per-class distribution the kernel's lifetime differential test compares; runs report only its mean",
}

// TestEveryFunctionHasAProductionCaller is the reachability census:
// every declared function and method of the module must be reached
// from a production root or be kept in reachKeep. The roots are every
// main, init functions and package initializers, the root package's
// exported API, and the methods through which a module type satisfies
// an exported standard-library interface (heap.Interface's Push,
// types.ImporterFrom's ImportFrom, error's Error, ...); calls through
// module interfaces are edges of the graph already.
func TestEveryFunctionHasAProductionCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	m := testModule(t)
	g := m.Graph
	modPath := testLoader(t).ModulePath

	var roots []*FuncNode
	byLabel := make(map[string]*FuncNode)
	stdIfaces := stdInterfaces(m.Packages, modPath)
	for _, n := range g.Nodes {
		if n.Obj == nil {
			continue
		}
		byLabel[reachLabel(n, modPath)] = n
		sig := n.Obj.Type().(*types.Signature)
		name := n.Obj.Name()
		switch {
		case sig.Recv() == nil && (name == "init" || name == "main" && n.Pkg.Types.Name() == "main"):
			roots = append(roots, n)
		case n.Pkg.Path == modPath && n.Obj.Exported():
			roots = append(roots, n)
		case sig.Recv() != nil && satisfiesStd(sig.Recv().Type(), name, stdIfaces):
			roots = append(roots, n)
		}
	}

	reached := g.Reachable(roots)
	for label := range reachKeep {
		n := byLabel[label]
		switch {
		case n == nil:
			t.Errorf("reachKeep names %s, which the module does not declare", label)
		case reached[n]:
			t.Errorf("reachKeep names %s, which a production root reaches: drop the entry", label)
		default:
			roots = append(roots, n)
		}
	}
	reached = g.Reachable(roots)

	var dead []string
	for label, n := range byLabel {
		if !reached[n] {
			dead = append(dead, label)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d functions have no production caller (delete them, or keep one in reachKeep with its reason):\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// reachLabel names a declared function by its package path below the
// module ("internal/fs"; the root package is its module path) and its
// receiver: "internal/fs.FS.Rename".
func reachLabel(n *FuncNode, modPath string) string {
	pkg := strings.TrimPrefix(n.Pkg.Path, modPath+"/")
	if sig := n.Obj.Type().(*types.Signature); sig.Recv() != nil {
		return pkg + "." + recvTypeName(sig) + "." + n.Obj.Name()
	}
	return pkg + "." + n.Obj.Name()
}

// stdInterfaces collects the exported, non-empty interfaces of
// every package outside the module that the module imports, directly
// or not, plus error.
func stdInterfaces(pkgs []*Package, modPath string) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
		if p.Path() == modPath || strings.HasPrefix(p.Path(), modPath+"/") {
			return
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				ifaces = append(ifaces, iface)
			}
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	return ifaces
}

// satisfiesStd reports whether recv, or a pointer to it, implements
// one of ifaces that names method.
func satisfiesStd(recv types.Type, method string, ifaces []*types.Interface) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	for _, iface := range ifaces {
		if !types.Implements(recv, iface) && !types.Implements(ptr, iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == method {
				return true
			}
		}
	}
	return false
}
