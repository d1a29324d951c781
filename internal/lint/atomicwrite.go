package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// atomicwritePackages is the durability layer: the on-disk result
// store, and the engine package whose checkpoint layer persists shards
// through it.
var atomicwritePackages = []string{
	"internal/resultstore",
	"internal/adversary",
}

// NewAtomicwrite returns the atomicwrite analyzer. A nil scope
// selects the durability packages.
func NewAtomicwrite(scope []string) *Analyzer {
	if scope == nil {
		scope = atomicwritePackages
	}
	return &Analyzer{
		Name: "atomicwrite",
		Doc: `enforces the temp+sync+rename idiom in the durability layer

A file that readers may observe must never be created in place: a
crash mid-write leaves a torn record at its final path, and a rename
of an unsynced temp file can publish a name whose bytes are still in
the page cache. In the store and engine packages every creation must
go through os.CreateTemp (write, Sync, Close, os.Rename), every
os.Rename must be preceded by a Sync in the same function, and
reopening an existing file is only allowed in append mode. os.Create,
os.WriteFile and os.OpenFile with O_CREATE are flagged
unconditionally.

The Sync must be on the renamed file itself: when the rename source
is spelled f.Name() (or a variable assigned from it), only a Sync on
that same f arms the rename, so syncing file A and renaming a
never-synced file B is still flagged. When the source expression
cannot be traced to a file variable the check degrades to
any-Sync-before-the-rename in the same function.`,
		Packages: scope,
		Run:      runAtomicwrite,
	}
}

func runAtomicwrite(pass *Pass) {
	for _, file := range pass.Files {
		walkFunctions(file, func(stack []funcScope) {
			fn := stack[len(stack)-1]
			checkAtomicwriteFunc(pass, fn.body)
		})
	}
}

func checkAtomicwriteFunc(pass *Pass, body *ast.BlockStmt) {
	// One source-order scan: Sync calls arm renames that follow them,
	// but only on the same file — a Sync's receiver must match the
	// rename source's file variable (traced through f.Name() and
	// name := f.Name() assignments) when that variable is known.
	type sync struct {
		pos  token.Pos
		recv string // receiver text ("tmp" for tmp.Sync())
	}
	var renames []*ast.CallExpr
	var syncs []sync
	// nameOf maps a variable assigned from f.Name() to f's text.
	nameOf := make(map[string]string)
	inspectShallow(body, func(n ast.Node) {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if lhs, ok := as.Lhs[0].(*ast.Ident); ok {
				if file := fileOfNameCall(pass, as.Rhs[0]); file != "" {
					nameOf[lhs.Name] = file
				}
			}
			return
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		switch {
		case isPkgCall(pass.TypesInfo, call, "os", "Create"):
			pass.Reportf(call.Pos(), "os.Create writes the final path in place; write a temp file (os.CreateTemp), Sync it and os.Rename it into place")
		case isPkgCall(pass.TypesInfo, call, "os", "WriteFile"):
			pass.Reportf(call.Pos(), "os.WriteFile writes the final path in place; write a temp file (os.CreateTemp), Sync it and os.Rename it into place")
		case isPkgCall(pass.TypesInfo, call, "os", "OpenFile"):
			if len(call.Args) >= 2 && flagsContain(call.Args[1], "O_CREATE") {
				pass.Reportf(call.Pos(), "os.OpenFile with O_CREATE creates the final path in place; write a temp file (os.CreateTemp), Sync it and os.Rename it into place (append-mode reopen of an existing file is fine)")
			}
		case isPkgCall(pass.TypesInfo, call, "os", "Rename"):
			renames = append(renames, call)
		default:
			if recv, ok := isMethodCall(pass.TypesInfo, call, "Sync"); ok {
				syncs = append(syncs, sync{pos: call.Pos(), recv: exprText(pass.Fset, recv)})
			}
		}
	})
	for _, r := range renames {
		file := ""
		if len(r.Args) >= 1 {
			file = fileOfNameCall(pass, r.Args[0])
			if file == "" {
				if src, ok := ast.Unparen(r.Args[0]).(*ast.Ident); ok {
					file = nameOf[src.Name]
				}
			}
		}
		synced := false
		for _, s := range syncs {
			if s.pos < r.Pos() && (file == "" || s.recv == file) {
				synced = true
				break
			}
		}
		if !synced {
			pass.Reportf(r.Pos(), "os.Rename without a preceding Sync of the renamed file in this function; fsync the temp file before renaming it into place, or the published name can still lose its bytes on power loss")
		}
	}
}

// fileOfNameCall returns the text of f for an expression of the form
// f.Name(), or "" when the expression is anything else.
func fileOfNameCall(pass *Pass, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	recv, ok := isMethodCall(pass.TypesInfo, call, "Name")
	if !ok {
		return ""
	}
	return exprText(pass.Fset, recv)
}

// flagsContain reports whether the flags expression mentions the
// given os.O_* constant anywhere (it is almost always a |-chain of
// selector constants).
func flagsContain(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if x.Sel.Name == name {
				found = true
			}
		case *ast.Ident:
			if strings.HasSuffix(x.Name, name) {
				found = true
			}
		}
		return !found
	})
	return found
}
