package lang

import "fmt"

// Object is a resolved reference target.
type Object interface{ objNode() }

// LocalObj is a local variable, array, or parameter.
type LocalObj struct {
	Name     string
	Type     *Type // element type for arrays
	IsArray  bool
	ArrayLen int64
	IsParam  bool
	ParamIdx int
	// SlotID is assigned by the checker in declaration order (params
	// first); the IR layer uses it directly so both backends agree.
	SlotID int
}

// GlobalObj is a file-scope variable or array.
type GlobalObj struct {
	Name     string
	Type     *Type
	IsArray  bool
	ArrayLen int64
}

// FuncObj names a function (valid only as spawn's first argument).
type FuncObj struct {
	Decl *FuncDecl
}

func (*LocalObj) objNode()  {}
func (*GlobalObj) objNode() {}
func (*FuncObj) objNode()   {}

// BuiltinSig describes a builtin callable.
type BuiltinSig struct {
	Params []*Type
	Ret    *Type
}

// Builtins maps builtin names to signatures. spawn and print are
// special-cased in the checker.
var Builtins = map[string]BuiltinSig{
	"printi": {Params: []*Type{IntType}, Ret: VoidType},
	"printf": {Params: []*Type{FloatType}, Ret: VoidType},
	"alloc":  {Params: []*Type{IntType}, Ret: IntPtr},
	"allocf": {Params: []*Type{IntType}, Ret: FloatPtr},
	"join":   {Params: []*Type{IntType}, Ret: VoidType},
	"lock":   {Params: []*Type{IntType}, Ret: VoidType},
	"unlock": {Params: []*Type{IntType}, Ret: VoidType},
	"yield":  {Params: nil, Ret: VoidType},
	"time":   {Params: nil, Ret: IntType},
	"tid":    {Params: nil, Ret: IntType},
	"ncores": {Params: nil, Ret: IntType},
	"recv":   {Params: []*Type{IntPtr, IntType}, Ret: IntType},
	"send":   {Params: []*Type{IntPtr, IntType}, Ret: VoidType},
	"exit":   {Params: []*Type{IntType}, Ret: VoidType},
}

// Info is the checker's output consumed by IR lowering.
type Info struct {
	Types map[Expr]*Type
	Uses  map[*Ident]Object
	// LocalOf maps each VarDecl to its LocalObj (slot identity).
	LocalOf map[*VarDecl]*LocalObj
	// FuncLocals lists every local object of a function in slot order.
	FuncLocals map[*FuncDecl][]*LocalObj
	Funcs      map[string]*FuncDecl
	Globals    map[string]*GlobalObj
}

type checker struct {
	info *Info

	fn     *FuncDecl
	locals []*LocalObj
	scopes []map[string]*LocalObj
}

// Check type-checks the file and resolves references. Its first error
// ends the check (fail).
func Check(file *File) (_ *Info, err error) {
	defer catch(&err)
	info := &Info{
		Types:      make(map[Expr]*Type),
		Uses:       make(map[*Ident]Object),
		LocalOf:    make(map[*VarDecl]*LocalObj),
		FuncLocals: make(map[*FuncDecl][]*LocalObj),
		Funcs:      make(map[string]*FuncDecl),
		Globals:    make(map[string]*GlobalObj),
	}
	c := &checker{info: info}
	for _, g := range file.Globals {
		if _, dup := info.Globals[g.Name]; dup {
			fail(g.Pos, "duplicate global %q", g.Name)
		}
		if g.ArrayLen >= 0 && g.Type.IsPtr() {
			fail(g.Pos, "arrays of pointers are not supported (each pointer must be a named slot for stack rewriting)")
		}
		info.Globals[g.Name] = &GlobalObj{Name: g.Name, Type: g.Type, IsArray: g.ArrayLen >= 0, ArrayLen: g.ArrayLen}
	}
	for _, fn := range file.Funcs {
		if _, dup := info.Funcs[fn.Name]; dup {
			fail(fn.Pos, "duplicate function %q", fn.Name)
		}
		if _, isBuiltin := Builtins[fn.Name]; isBuiltin || fn.Name == "print" || fn.Name == "spawn" {
			fail(fn.Pos, "function %q shadows a builtin", fn.Name)
		}
		info.Funcs[fn.Name] = fn
	}
	if _, ok := info.Funcs["main"]; !ok {
		fail(Pos{Line: 1, Col: 1}, "missing func main")
	}
	for _, fn := range file.Funcs {
		c.checkFunc(fn)
	}
	return info, nil
}

func (c *checker) checkFunc(fn *FuncDecl) {
	if len(fn.Params) > 3 {
		fail(fn.Pos, "function %q has %d parameters; the cross-ISA ABI supports at most 3", fn.Name, len(fn.Params))
	}
	c.fn = fn
	c.locals = nil
	c.scopes = []map[string]*LocalObj{make(map[string]*LocalObj)}
	for i, p := range fn.Params {
		obj := &LocalObj{Name: p.Name, Type: p.Type, IsParam: true, ParamIdx: i, SlotID: len(c.locals)}
		c.locals = append(c.locals, obj)
		if _, dup := c.scopes[0][p.Name]; dup {
			fail(fn.Pos, "duplicate parameter %q", p.Name)
		}
		c.scopes[0][p.Name] = obj
	}
	c.checkBlock(fn.Body)
	c.info.FuncLocals[fn] = c.locals
}

func (c *checker) push() { c.scopes = append(c.scopes, make(map[string]*LocalObj)) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) lookup(name string) (*LocalObj, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if o, ok := c.scopes[i][name]; ok {
			return o, true
		}
	}
	return nil, false
}

func (c *checker) checkBlock(b *Block) {
	c.push()
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
	c.pop()
}

func (c *checker) declare(d *VarDecl) {
	scope := c.scopes[len(c.scopes)-1]
	if _, dup := scope[d.Name]; dup {
		fail(d.Pos, "duplicate variable %q in this scope", d.Name)
	}
	if d.ArrayLen >= 0 && d.Type.IsPtr() {
		fail(d.Pos, "arrays of pointers are not supported (each pointer must be a named slot for stack rewriting)")
	}
	obj := &LocalObj{Name: d.Name, Type: d.Type, IsArray: d.ArrayLen >= 0, ArrayLen: d.ArrayLen, SlotID: len(c.locals)}
	c.locals = append(c.locals, obj)
	scope[d.Name] = obj
	c.info.LocalOf[d] = obj
}

// checkCond checks a condition, which must be an int.
func (c *checker) checkCond(what string, pos Pos, cond Expr) {
	if t := c.checkExpr(cond); t.Kind != TypeInt {
		fail(pos, "%s condition must be int, got %s", what, t)
	}
}

func (c *checker) checkStmt(s Stmt) {
	switch s := s.(type) {
	case *VarDecl:
		c.declare(s)
		if s.Init != nil {
			if t := c.checkExpr(s.Init); !t.Equal(s.Type) {
				fail(s.Pos, "cannot initialize %s %q with %s", s.Type, s.Name, t)
			}
		}
	case *Assign:
		lt := c.checkLValue(s.LHS)
		if rt := c.checkExpr(s.RHS); !lt.Equal(rt) {
			fail(s.Pos, "cannot assign %s to %s", rt, lt)
		}
	case *If:
		c.checkCond("if", s.Pos, s.Cond)
		c.checkBlock(s.Then)
		if s.Else != nil {
			c.checkBlock(s.Else)
		}
	case *While:
		c.checkCond("while", s.Pos, s.Cond)
		c.checkBlock(s.Body)
	case *For:
		c.push()
		if s.Init != nil {
			c.checkStmt(s.Init)
		}
		if s.Cond != nil {
			c.checkCond("for", s.Pos, s.Cond)
		}
		if s.Post != nil {
			c.checkStmt(s.Post)
		}
		c.checkBlock(s.Body)
		c.pop()
	case *Return:
		if s.Val == nil {
			if c.fn.Ret.Kind != TypeVoid {
				fail(s.Pos, "missing return value in %q", c.fn.Name)
			}
		} else if t := c.checkExpr(s.Val); !t.Equal(c.fn.Ret) {
			fail(s.Pos, "return type %s does not match %s", t, c.fn.Ret)
		}
	case *Break, *Continue:
	case *ExprStmt:
		c.checkExprAllowVoid(s.X)
	case *Block:
		c.checkBlock(s)
	default:
		panic(fmt.Sprintf("dapc: unknown statement %T", s))
	}
}

// checkLValue types an assignable expression.
func (c *checker) checkLValue(e Expr) *Type {
	switch e := e.(type) {
	case *Ident:
		t := c.checkExpr(e)
		switch o := c.info.Uses[e].(type) {
		case *LocalObj:
			if o.IsArray {
				fail(e.Pos, "cannot assign to array %q", e.Name)
			}
		case *GlobalObj:
			if o.IsArray {
				fail(e.Pos, "cannot assign to array %q", e.Name)
			}
		case *FuncObj:
			fail(e.Pos, "cannot assign to function %q", e.Name)
		}
		return t
	case *Index:
		return c.checkExpr(e)
	case *Unary:
		if e.Op != "*" {
			fail(e.Pos, "not an lvalue")
		}
		return c.checkExpr(e)
	}
	fail(exprPos(e), "not an lvalue")
	return nil
}

func exprPos(e Expr) Pos {
	switch e := e.(type) {
	case *IntLit:
		return e.Pos
	case *FloatLit:
		return e.Pos
	case *StrLit:
		return e.Pos
	case *Ident:
		return e.Pos
	case *Index:
		return e.Pos
	case *Unary:
		return e.Pos
	case *Binary:
		return e.Pos
	case *Call:
		return e.Pos
	case *Cast:
		return e.Pos
	default:
		return Pos{}
	}
}

func (c *checker) checkExpr(e Expr) *Type {
	t := c.checkExprAllowVoid(e)
	if t.Kind == TypeVoid {
		fail(exprPos(e), "void value used as expression")
	}
	return t
}

func (c *checker) checkExprAllowVoid(e Expr) *Type {
	t := c.typeOf(e)
	c.info.Types[e] = t
	return t
}

func (c *checker) typeOf(e Expr) *Type {
	switch e := e.(type) {
	case *IntLit:
		return IntType
	case *FloatLit:
		return FloatType
	case *StrLit:
		fail(e.Pos, "string literals may only appear as print() arguments")
	case *Ident:
		if obj, ok := c.lookup(e.Name); ok {
			c.info.Uses[e] = obj
			if obj.IsArray {
				return &Type{Kind: TypePtr, Elem: obj.Type}
			}
			return obj.Type
		}
		if g, ok := c.info.Globals[e.Name]; ok {
			c.info.Uses[e] = g
			if g.IsArray {
				return &Type{Kind: TypePtr, Elem: g.Type}
			}
			return g.Type
		}
		if fn, ok := c.info.Funcs[e.Name]; ok {
			c.info.Uses[e] = &FuncObj{Decl: fn}
			fail(e.Pos, "function %q used as value (only spawn takes a function)", e.Name)
		}
		fail(e.Pos, "undefined: %q", e.Name)
	case *Index:
		bt := c.checkExpr(e.Base)
		if bt.Kind != TypePtr {
			fail(e.Pos, "cannot index %s", bt)
		}
		if it := c.checkExpr(e.Idx); it.Kind != TypeInt {
			fail(e.Pos, "index must be int, got %s", it)
		}
		return bt.Elem
	case *Unary:
		return c.typeOfUnary(e)
	case *Binary:
		return c.typeOfBinary(e)
	case *Cast:
		if t := c.checkExpr(e.X); t.Kind != TypeInt && t.Kind != TypeFloat {
			fail(e.Pos, "cannot cast %s", t)
		}
		return e.To
	case *Call:
		return c.checkCall(e)
	}
	panic(fmt.Sprintf("dapc: unknown expression %T", e))
}

func (c *checker) typeOfUnary(e *Unary) *Type {
	switch e.Op {
	case "-":
		t := c.checkExpr(e.X)
		if t.Kind != TypeInt && t.Kind != TypeFloat {
			fail(e.Pos, "cannot negate %s", t)
		}
		return t
	case "!":
		if t := c.checkExpr(e.X); t.Kind != TypeInt {
			fail(e.Pos, "operand of ! must be int, got %s", t)
		}
		return IntType
	case "&":
		switch x := e.X.(type) {
		case *Ident:
			t := c.checkExpr(x)
			if t.Kind == TypePtr {
				switch o := c.info.Uses[x].(type) {
				case *LocalObj:
					if o.IsArray {
						// &array is the array address itself.
						return t
					}
				case *GlobalObj:
					if o.IsArray {
						return t
					}
				}
			}
			return &Type{Kind: TypePtr, Elem: t}
		case *Index:
			return &Type{Kind: TypePtr, Elem: c.checkExpr(x)}
		}
		fail(e.Pos, "cannot take address of this expression")
	case "*":
		t := c.checkExpr(e.X)
		if t.Kind != TypePtr {
			fail(e.Pos, "cannot dereference %s", t)
		}
		return t.Elem
	}
	fail(e.Pos, "unknown unary operator %q", e.Op)
	return nil
}

func (c *checker) typeOfBinary(e *Binary) *Type {
	lt := c.checkExpr(e.L)
	rt := c.checkExpr(e.R)
	switch e.Op {
	case "&&", "||", "%", "&", "|", "^", "<<", ">>":
		if lt.Kind != TypeInt || rt.Kind != TypeInt {
			fail(e.Pos, "operator %q requires int operands, got %s and %s", e.Op, lt, rt)
		}
		return IntType
	case "+", "-", "*", "/":
		if !lt.Equal(rt) || (lt.Kind != TypeInt && lt.Kind != TypeFloat) {
			fail(e.Pos, "operator %q requires matching numeric operands, got %s and %s", e.Op, lt, rt)
		}
		return lt
	case "==", "!=", "<", "<=", ">", ">=":
		if !lt.Equal(rt) {
			fail(e.Pos, "cannot compare %s with %s", lt, rt)
		}
		return IntType
	}
	fail(e.Pos, "unknown operator %q", e.Op)
	return nil
}

// checkArgs checks a call's arguments against its parameter types; a
// builtin's pointer parameter takes any pointer.
func (c *checker) checkArgs(e *Call, params []*Type, builtin bool) {
	if len(e.Args) != len(params) {
		fail(e.Pos, "%s takes %d arguments, got %d", e.Name, len(params), len(e.Args))
	}
	for i, a := range e.Args {
		t, want := c.checkExpr(a), params[i]
		if builtin && want.Kind == TypePtr && t.Kind == TypePtr {
			continue
		}
		if !t.Equal(want) {
			fail(e.Pos, "%s argument %d: want %s, got %s", e.Name, i+1, want, t)
		}
	}
}

func (c *checker) checkCall(e *Call) *Type {
	switch e.Name {
	case "print":
		if len(e.Args) != 1 {
			fail(e.Pos, "print takes exactly one string literal")
		}
		if _, ok := e.Args[0].(*StrLit); !ok {
			fail(e.Pos, "print takes a string literal (use printi/printf for values)")
		}
		return VoidType
	case "spawn":
		if len(e.Args) != 2 {
			fail(e.Pos, "spawn takes (function, int)")
		}
		id, ok := e.Args[0].(*Ident)
		if !ok {
			fail(e.Pos, "spawn's first argument must be a function name")
		}
		fn, ok := c.info.Funcs[id.Name]
		if !ok {
			fail(e.Pos, "spawn: undefined function %q", id.Name)
		}
		if len(fn.Params) != 1 || fn.Params[0].Type.Kind != TypeInt || fn.Ret.Kind != TypeVoid {
			fail(e.Pos, "spawn target %q must have signature func(int)", id.Name)
		}
		c.info.Uses[id] = &FuncObj{Decl: fn}
		if t := c.checkExpr(e.Args[1]); t.Kind != TypeInt {
			fail(e.Pos, "spawn argument must be int")
		}
		return IntType
	}
	if sig, ok := Builtins[e.Name]; ok {
		c.checkArgs(e, sig.Params, true)
		return sig.Ret
	}
	fn, ok := c.info.Funcs[e.Name]
	if !ok {
		fail(e.Pos, "call of undefined function %q", e.Name)
	}
	params := make([]*Type, len(fn.Params))
	for i, p := range fn.Params {
		params[i] = p.Type
	}
	c.checkArgs(e, params, false)
	return fn.Ret
}
