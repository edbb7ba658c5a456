package core_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The paper's terminal operations never return: thread_syscall_return,
// call_continuation and thread_block reset the stack pointer and jump,
// and the code after them is /*NOTREACHED*/. The simulator's terminal
// operations record the processor's next action (Processor.transfer) and
// return, so the rule becomes: a call that may transfer control is the
// last statement on its path, or is followed directly by return, or by a
// guard on Env.Transferred. TestNotReached checks that rule statically
// over every package of the module, test files and function literals
// included.

const modulePath = "repro"

// transferFields are the function-valued fields whose values hold
// terminal code. A call through one is a may-transfer call even though
// no static callee can be named.
var transferFields = []struct{ pkg, typ, field string }{
	{"repro/internal/core", "Action", "Invoke"},
	{"repro/internal/core", "Kernel", "HandleFault"},
	{"repro/internal/core", "Kernel", "HandleException"},
	{"repro/internal/ipc", "Port", "KernelSink"},
	{"repro/internal/ipc", "IPC", "UserReturnHook"},
	{"repro/internal/dev", "Request", "Inline"},
}

func TestNotReached(t *testing.T) {
	l := newModLoader(t, moduleRoot(t))
	pkgs := l.loadModule()
	// The fixture imports core like any client; it joins the fixpoint
	// but is checked on its own.
	dir, err := filepath.Abs(filepath.Join("testdata", "notreached"))
	if err != nil {
		t.Fatal(err)
	}
	fixture := l.check(modulePath+"/internal/core/testdata/notreached", dir, []string{"fixture.go"})
	r := newTransferRule(t, l)
	r.fixpoint(append(pkgs, fixture))

	// The fixpoint must find the terminal operations, and only them:
	// a set that is empty or that swallowed the non-terminal parts of
	// the interface would make every later check vacuous or wrong.
	for _, name := range []string{"Block", "BlockDirected", "HandoffTo", "CallContinuation", "SwitchContext",
		"ThreadSyscallReturn", "ThreadSyscallReturnOverride", "ThreadExceptionReturn", "Halt"} {
		if !r.funcs[r.method("repro/internal/core", "Kernel", name)] {
			t.Errorf("(*Kernel).%s is not in the may-transfer set", name)
		}
	}
	for _, name := range []string{"CanHandoffTo", "ThreadHandoff", "Recognize", "StackHandoff", "Setrun", "SetState", "TakeInterrupt", "Run"} {
		if r.funcs[r.method("repro/internal/core", "Kernel", name)] {
			t.Errorf("(*Kernel).%s does not transfer control but is in the may-transfer set", name)
		}
	}

	t.Run("module", func(t *testing.T) {
		var bad []string
		for _, p := range pkgs {
			bad = append(bad, r.check(p)...)
		}
		sort.Strings(bad)
		for _, b := range bad {
			t.Error(b)
		}
	})

	// The fixture holds one terminal call with code after it; exactly
	// that call must be reported.
	t.Run("fixture", func(t *testing.T) {
		got := r.check(fixture)
		if len(got) != 1 || !strings.Contains(got[0], "fixture.go:14:") ||
			!strings.Contains(got[0], "ThreadSyscallReturn") {
			t.Fatalf("want one report at fixture.go:14 naming ThreadSyscallReturn, got %q", got)
		}
	})
}

// moduleRoot finds the directory holding the module's go.mod.
func moduleRoot(t *testing.T) string {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// checkedPkg is one type-checked package: a module package together with
// its in-package test files, or an external _test package.
type checkedPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// modLoader type-checks the module from source. Module packages are
// checked once, with their in-package test files, and that one copy is
// what every importer sees, so each function has exactly one
// *types.Func. The standard library comes from the source importer.
type modLoader struct {
	t    *testing.T
	fset *token.FileSet
	root string
	std  types.ImporterFrom
	// files and xtest hold each module package's source and in-package
	// test files, and its external test files, by import path; pkgs the
	// packages checked so far.
	files map[string][]string
	xtest map[string][]string
	pkgs  map[string]*checkedPkg
}

func newModLoader(t *testing.T, root string) *modLoader {
	fset := token.NewFileSet()
	return &modLoader{
		t:     t,
		fset:  fset,
		root:  root,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		files: make(map[string][]string),
		xtest: make(map[string][]string),
		pkgs:  make(map[string]*checkedPkg),
	}
}

func (l *modLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *modLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return l.std.ImportFrom(path, dir, mode)
	}
	if _, ok := l.files[path]; !ok {
		return nil, fmt.Errorf("module package %s not found", path)
	}
	return l.load(path).pkg, nil
}

// loadModule finds every package directory of the module (skipping
// testdata, hidden directories and nested modules) and type-checks each
// package and external test package, in a stable order.
func (l *modLoader) loadModule() []*checkedPkg {
	var paths []string
	err := filepath.WalkDir(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != l.root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		ip := modulePath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		l.files[ip] = append(bp.GoFiles, bp.TestGoFiles...)
		if len(bp.XTestGoFiles) > 0 {
			l.xtest[ip] = bp.XTestGoFiles
		}
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		l.t.Fatal(err)
	}
	var out []*checkedPkg
	for _, ip := range paths {
		out = append(out, l.load(ip))
	}
	// External tests last: they may import any package of the module.
	for _, ip := range paths {
		if files := l.xtest[ip]; files != nil {
			out = append(out, l.check(ip+"_test", l.dir(ip), files))
		}
	}
	return out
}

func (l *modLoader) dir(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, modulePath), "/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// load type-checks a module package with its in-package test files,
// once. Go forbids an in-package test from importing anything that
// imports the package under test, so the extra files never create a
// cycle.
func (l *modLoader) load(importPath string) *checkedPkg {
	if p := l.pkgs[importPath]; p != nil {
		return p
	}
	p := l.check(importPath, l.dir(importPath), l.files[importPath])
	l.pkgs[importPath] = p
	return p
}

func (l *modLoader) check(importPath, dir string, names []string) *checkedPkg {
	p := &checkedPkg{info: &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatal(err)
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(importPath, l.fset, p.files, p.info)
	if err != nil {
		l.t.Fatalf("type-checking %s: %v", importPath, err)
	}
	p.pkg = pkg
	return p
}

// transferRule holds the may-transfer set: functions that can end the
// current dispatcher action by transferring control, matched by object
// identity so that a same-named method elsewhere (sync.WaitGroup.Wait,
// cthreads.Wait) never matches.
type transferRule struct {
	t      *testing.T
	l      *modLoader
	funcs  map[*types.Func]bool
	fields map[*types.Var]bool
	guard  *types.Func // (*core.Env).Transferred
}

func newTransferRule(t *testing.T, l *modLoader) *transferRule {
	r := &transferRule{t: t, l: l, funcs: make(map[*types.Func]bool), fields: make(map[*types.Var]bool)}
	// Every terminal operation ends in Processor.transfer; the fixpoint
	// grows the set from there.
	r.funcs[r.method("repro/internal/core", "Processor", "transfer")] = true
	r.guard = r.method("repro/internal/core", "Env", "Transferred")
	for _, f := range transferFields {
		v, ok := r.lookup(f.pkg, f.typ, f.field).(*types.Var)
		if !ok || !v.IsField() {
			t.Fatalf("%s.%s.%s is not a field", f.pkg, f.typ, f.field)
		}
		r.fields[v] = true
	}
	return r
}

func (r *transferRule) lookup(pkgPath, typ, name string) types.Object {
	p := r.l.pkgs[pkgPath]
	if p == nil {
		r.t.Fatalf("package %s not loaded", pkgPath)
	}
	tn, ok := p.pkg.Scope().Lookup(typ).(*types.TypeName)
	if !ok {
		r.t.Fatalf("%s.%s is not a type", pkgPath, typ)
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, p.pkg, name)
	if obj == nil {
		r.t.Fatalf("%s.%s has no field or method %s", pkgPath, typ, name)
	}
	return obj
}

func (r *transferRule) method(pkgPath, typ, name string) *types.Func {
	f, ok := r.lookup(pkgPath, typ, name).(*types.Func)
	if !ok {
		r.t.Fatalf("%s.%s.%s is not a method", pkgPath, typ, name)
	}
	return f
}

// callee resolves the function or field a call goes through, or nil.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// transfers reports whether a call may transfer control.
func (r *transferRule) transfers(info *types.Info, call *ast.CallExpr) bool {
	switch obj := callee(info, call).(type) {
	case *types.Func:
		return r.funcs[obj]
	case *types.Var:
		return r.fields[obj]
	}
	return false
}

// fixpoint adds every function that makes a may-transfer call in its own
// body (function literals are separate functions and do not count).
func (r *transferRule) fixpoint(pkgs []*checkedPkg) {
	type decl struct {
		fn   *types.Func
		info *types.Info
		body *ast.BlockStmt
	}
	var decls []decl
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := p.info.Defs[fd.Name].(*types.Func); ok {
					decls = append(decls, decl{fn, p.info, fd.Body})
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if r.funcs[d.fn] {
				continue
			}
			found := false
			ast.Inspect(d.body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false
				case *ast.CallExpr:
					if r.transfers(d.info, n) {
						found = true
					}
				}
				return !found
			})
			if found {
				r.funcs[d.fn] = true
				changed = true
			}
		}
	}
}

// follow is what runs after a statement: the end of the function (stmt
// nil), the next loop iteration, a position inside a larger statement,
// or the next statement together with whatever follows it.
type follow struct {
	stmt ast.Stmt
	then *follow
	loop bool
	what string // a position inside a statement, never allowed
}

var endOfFunc = &follow{}

// head is the follow that starts by running stmts.
func head(stmts []ast.Stmt, after *follow) *follow {
	for i := len(stmts) - 1; i >= 0; i-- {
		after = &follow{stmt: stmts[i], then: after}
	}
	return after
}

// checker walks one package's function bodies.
type checker struct {
	r    *transferRule
	p    *checkedPkg
	errs []string
}

// check reports every may-transfer call in p that more code follows.
func (r *transferRule) check(p *checkedPkg) []string {
	c := &checker{r: r, p: p}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					c.list(d.Body.List, endOfFunc)
				}
			case *ast.GenDecl:
				c.exprs(d, &follow{what: "package initialization"})
			}
		}
	}
	return c.errs
}

func (c *checker) list(stmts []ast.Stmt, after *follow) {
	for i, s := range stmts {
		c.stmt(s, head(stmts[i+1:], after))
	}
}

func (c *checker) stmt(s ast.Stmt, after *follow) {
	inside := func(what string) *follow { return &follow{what: what} }
	switch s := s.(type) {
	case *ast.BlockStmt:
		c.list(s.List, after)
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, after)
	case *ast.IfStmt:
		c.exprs(s.Init, inside("an if statement's init"))
		// A may-transfer call in the condition (a hook reporting that it
		// transferred) must lead into a guard or a return.
		c.exprs(s.Cond, head(s.Body.List, after))
		c.list(s.Body.List, after)
		if s.Else != nil {
			c.stmt(s.Else, after)
		}
	case *ast.SwitchStmt:
		c.exprs(s.Init, inside("a switch statement's init"))
		c.exprs(s.Tag, inside("a switch tag"))
		for _, cc := range s.Body.List {
			cc := cc.(*ast.CaseClause)
			for _, e := range cc.List {
				c.exprs(e, inside("a case expression"))
			}
			c.list(cc.Body, after)
		}
	case *ast.TypeSwitchStmt:
		c.exprs(s.Init, inside("a switch statement's init"))
		c.exprs(s.Assign, inside("a type switch guard"))
		for _, cc := range s.Body.List {
			c.list(cc.(*ast.CaseClause).Body, after)
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			cc := cc.(*ast.CommClause)
			c.exprs(cc.Comm, inside("a select case"))
			c.list(cc.Body, after)
		}
	case *ast.ForStmt:
		c.exprs(s.Init, inside("a for statement's header"))
		c.exprs(s.Cond, inside("a for statement's header"))
		c.exprs(s.Post, inside("a for statement's header"))
		c.list(s.Body.List, &follow{loop: true})
	case *ast.RangeStmt:
		c.exprs(s.X, inside("a range expression"))
		c.list(s.Body.List, &follow{loop: true})
	case *ast.GoStmt:
		c.exprs(s, inside("a go statement"))
	case *ast.DeferStmt:
		c.exprs(s, inside("a defer statement"))
	case *ast.ReturnStmt:
		c.exprs(s, endOfFunc)
	default:
		c.exprs(s, after)
	}
}

// exprs checks the calls in n, which run before after. Function literals
// are checked as bodies of their own.
func (c *checker) exprs(n ast.Node, after *follow) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.list(n.Body.List, endOfFunc)
			return false
		case *ast.CallExpr:
			if c.r.transfers(c.p.info, n) && !c.ok(after) {
				c.report(n, after)
			}
		}
		return true
	})
}

// ok reports whether a may-transfer call may be followed by after.
func (c *checker) ok(after *follow) bool {
	if s, isIf := after.stmt.(*ast.IfStmt); isIf {
		return c.guard(s, after.then)
	}
	return returns(after)
}

// returns reports whether after leaves the function at once.
func returns(after *follow) bool {
	if after.stmt == nil {
		return !after.loop && after.what == ""
	}
	_, ret := after.stmt.(*ast.ReturnStmt)
	return ret
}

// guard accepts the two forms of a transfer guard:
//
//	if e.Transferred() { ...; return }
//	if !e.Transferred() { panic(...) }; return
func (c *checker) guard(s *ast.IfStmt, after *follow) bool {
	if s.Init != nil || s.Else != nil {
		return false
	}
	cond := ast.Unparen(s.Cond)
	negated := false
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		negated = true
		cond = ast.Unparen(u.X)
	}
	call, ok := cond.(*ast.CallExpr)
	if !ok || callee(c.p.info, call) != c.r.guard {
		return false
	}
	if negated {
		return returns(after)
	}
	n := len(s.Body.List)
	if n == 0 {
		return false
	}
	_, ret := s.Body.List[n-1].(*ast.ReturnStmt)
	return ret
}

func (c *checker) report(call *ast.CallExpr, after *follow) {
	var next string
	switch {
	case after.what != "":
		next = "the rest of " + after.what
	case after.loop:
		next = "the next loop iteration"
	default:
		next = fmt.Sprintf("%s at line %d", strings.TrimPrefix(fmt.Sprintf("%T", after.stmt), "*ast."),
			c.r.l.fset.Position(after.stmt.Pos()).Line)
	}
	name := types.ExprString(call.Fun)
	if obj := callee(c.p.info, call); obj != nil {
		name = obj.Name()
	}
	pos := c.r.l.fset.Position(call.Pos())
	rel, err := filepath.Rel(c.r.l.root, pos.Filename)
	if err != nil {
		rel = pos.Filename
	}
	c.errs = append(c.errs, fmt.Sprintf("%s:%d: call to %s may transfer control but is followed by %s (want return or an Env.Transferred guard)",
		filepath.ToSlash(rel), pos.Line, name, next))
}
