package lang

import "fmt"

// parser builds the AST with one token of lookahead. Its first error
// ends the parse (fail).
type parser struct {
	toks []Token
	pos  int
	// consts collects named constants so later literals can fold.
	consts map[string]int64
}

// Parse parses a DapC source file.
func Parse(src string) (_ *File, err error) {
	defer catch(&err)
	p := &parser{toks: lex(src), consts: make(map[string]int64)}
	return p.file(), nil
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) curPos() Pos { return Pos{Line: p.cur().Line, Col: p.cur().Col} }

func (p *parser) is(kind TokKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) accept(kind TokKind, text string) bool {
	if p.is(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind TokKind, text string) Token {
	if !p.is(kind, text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", kind)
		}
		fail(p.curPos(), "expected %q, found %q", want, p.cur().String())
	}
	return p.next()
}

func (p *parser) file() *File {
	f := &File{}
	for !p.is(TokEOF, "") {
		switch {
		case p.is(TokKeyword, "var"):
			f.Globals = append(f.Globals, p.globalDecl())
		case p.is(TokKeyword, "const"):
			c := p.constDecl()
			p.consts[c.Name] = c.Val
			f.Consts = append(f.Consts, c)
		case p.is(TokKeyword, "func"):
			f.Funcs = append(f.Funcs, p.funcDecl())
		default:
			fail(p.curPos(), "expected declaration, found %q", p.cur().String())
		}
	}
	return f
}

// parseType parses int, float, *int, *float, **int, ...
func (p *parser) parseType() *Type {
	switch {
	case p.accept(TokPunct, "*"):
		return &Type{Kind: TypePtr, Elem: p.parseType()}
	case p.accept(TokKeyword, "int"):
		return IntType
	case p.accept(TokKeyword, "float"):
		return FloatType
	}
	fail(p.curPos(), "expected type, found %q", p.cur().String())
	return nil
}

// arrayLen parses the length of an array declaration after its "[":
// N ] with N a positive constant expression.
func (p *parser) arrayLen(decl Pos) int64 {
	n := p.constExpr()
	if n <= 0 {
		fail(decl, "array length must be positive")
	}
	p.expect(TokPunct, "]")
	return n
}

// globalDecl: var name type ;  |  var name [ N ] type ;
func (p *parser) globalDecl() *GlobalDecl {
	pos := p.curPos()
	p.next() // var
	g := &GlobalDecl{Pos: pos, Name: p.expect(TokIdent, "").Text, ArrayLen: -1}
	if p.accept(TokPunct, "[") {
		g.ArrayLen = p.arrayLen(pos)
	}
	g.Type = p.parseType()
	p.expect(TokPunct, ";")
	return g
}

// constDecl: const NAME = intconst ;
func (p *parser) constDecl() *ConstDecl {
	pos := p.curPos()
	p.next() // const
	name := p.expect(TokIdent, "")
	p.expect(TokPunct, "=")
	v := p.constExpr()
	p.expect(TokPunct, ";")
	return &ConstDecl{Pos: pos, Name: name.Text, Val: v}
}

// constExpr evaluates a compile-time integer expression (literals, named
// constants, + - * / % << >> and parentheses).
func (p *parser) constExpr() int64 {
	v := p.constAdd()
	for {
		switch {
		case p.accept(TokPunct, "<<"):
			v <<= uint(p.constAdd())
		case p.accept(TokPunct, ">>"):
			v >>= uint(p.constAdd())
		default:
			return v
		}
	}
}

func (p *parser) constAdd() int64 {
	v := p.constMul()
	for {
		switch {
		case p.accept(TokPunct, "+"):
			v += p.constMul()
		case p.accept(TokPunct, "-"):
			v -= p.constMul()
		default:
			return v
		}
	}
}

func (p *parser) constMul() int64 {
	v := p.constAtom()
	for {
		switch {
		case p.accept(TokPunct, "*"):
			v *= p.constAtom()
		case p.accept(TokPunct, "/"):
			r := p.constAtom()
			if r == 0 {
				fail(p.curPos(), "constant division by zero")
			}
			v /= r
		case p.accept(TokPunct, "%"):
			r := p.constAtom()
			if r == 0 {
				fail(p.curPos(), "constant modulo by zero")
			}
			v %= r
		default:
			return v
		}
	}
}

func (p *parser) constAtom() int64 {
	pos := p.curPos()
	t := p.cur()
	switch {
	case t.Kind == TokInt:
		p.next()
		return t.Int
	case t.Kind == TokIdent:
		v, ok := p.consts[t.Text]
		if !ok {
			fail(pos, "unknown constant %q", t.Text)
		}
		p.next()
		return v
	case p.accept(TokPunct, "("):
		v := p.constExpr()
		p.expect(TokPunct, ")")
		return v
	case p.accept(TokPunct, "-"):
		return -p.constAtom()
	}
	fail(pos, "expected constant expression, found %q", t.String())
	return 0
}

// funcDecl: func name ( params ) [type] { body }
func (p *parser) funcDecl() *FuncDecl {
	pos := p.curPos()
	p.next() // func
	fn := &FuncDecl{Pos: pos, Name: p.expect(TokIdent, "").Text, Ret: VoidType}
	p.expect(TokPunct, "(")
	for !p.is(TokPunct, ")") {
		if len(fn.Params) > 0 {
			p.expect(TokPunct, ",")
		}
		name := p.expect(TokIdent, "").Text
		fn.Params = append(fn.Params, Param{Name: name, Type: p.parseType()})
	}
	p.next() // )
	if !p.is(TokPunct, "{") {
		fn.Ret = p.parseType()
	}
	fn.Body = p.block()
	return fn
}

func (p *parser) block() *Block {
	pos := p.curPos()
	p.expect(TokPunct, "{")
	b := &Block{Pos: pos}
	for !p.is(TokPunct, "}") {
		if p.is(TokEOF, "") {
			fail(pos, "unterminated block")
		}
		b.Stmts = append(b.Stmts, p.stmt())
	}
	p.next() // }
	return b
}

func (p *parser) stmt() Stmt {
	pos := p.curPos()
	var s Stmt
	switch {
	case p.is(TokKeyword, "if"):
		return p.ifStmt()
	case p.accept(TokKeyword, "while"):
		return &While{Pos: pos, Cond: p.expr(), Body: p.block()}
	case p.is(TokKeyword, "for"):
		return p.forStmt()
	case p.is(TokPunct, "{"):
		return p.block()
	case p.is(TokKeyword, "var"):
		s = p.varDecl()
	case p.accept(TokKeyword, "return"):
		r := &Return{Pos: pos}
		if !p.is(TokPunct, ";") {
			r.Val = p.expr()
		}
		s = r
	case p.accept(TokKeyword, "break"):
		s = &Break{Pos: pos}
	case p.accept(TokKeyword, "continue"):
		s = &Continue{Pos: pos}
	default:
		s = p.simpleStmt()
	}
	p.expect(TokPunct, ";")
	return s
}

// varDecl (without trailing semicolon): var name [N] type [= expr]
func (p *parser) varDecl() *VarDecl {
	pos := p.curPos()
	p.next() // var
	d := &VarDecl{Pos: pos, Name: p.expect(TokIdent, "").Text, ArrayLen: -1}
	if p.accept(TokPunct, "[") {
		d.ArrayLen = p.arrayLen(pos)
	}
	d.Type = p.parseType()
	if p.accept(TokPunct, "=") {
		if d.ArrayLen >= 0 {
			fail(pos, "array declarations cannot have initializers")
		}
		d.Init = p.expr()
	}
	return d
}

// simpleStmt: assignment or expression statement.
func (p *parser) simpleStmt() Stmt {
	pos := p.curPos()
	lhs := p.expr()
	if p.accept(TokPunct, "=") {
		return &Assign{Pos: pos, LHS: lhs, RHS: p.expr()}
	}
	return &ExprStmt{Pos: pos, X: lhs}
}

func (p *parser) ifStmt() Stmt {
	pos := p.curPos()
	p.next() // if
	s := &If{Pos: pos, Cond: p.expr(), Then: p.block()}
	if p.accept(TokKeyword, "else") {
		if p.is(TokKeyword, "if") {
			s.Else = &Block{Pos: pos, Stmts: []Stmt{p.ifStmt()}}
		} else {
			s.Else = p.block()
		}
	}
	return s
}

// forStmt: for [init]; [cond]; [post] { body }
func (p *parser) forStmt() Stmt {
	pos := p.curPos()
	p.next() // for
	f := &For{Pos: pos}
	if p.is(TokKeyword, "var") {
		f.Init = p.varDecl()
	} else if !p.is(TokPunct, ";") {
		f.Init = p.simpleStmt()
	}
	p.expect(TokPunct, ";")
	if !p.is(TokPunct, ";") {
		f.Cond = p.expr()
	}
	p.expect(TokPunct, ";")
	if !p.is(TokPunct, "{") {
		f.Post = p.simpleStmt()
	}
	f.Body = p.block()
	return f
}

// Expression parsing: precedence climbing.

var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3, "^": 3,
	"&":  4,
	"==": 5, "!=": 5,
	"<": 6, "<=": 6, ">": 6, ">=": 6,
	"<<": 7, ">>": 7,
	"+": 8, "-": 8,
	"*": 9, "/": 9, "%": 9,
}

func (p *parser) expr() Expr { return p.binExpr(1) }

func (p *parser) binExpr(minPrec int) Expr {
	lhs := p.unary()
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return lhs
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return lhs
		}
		pos := p.curPos()
		p.next()
		lhs = &Binary{Pos: pos, Op: t.Text, L: lhs, R: p.binExpr(prec + 1)}
	}
}

func (p *parser) unary() Expr {
	pos := p.curPos()
	for _, op := range []string{"-", "!", "&", "*"} {
		if p.accept(TokPunct, op) {
			return &Unary{Pos: pos, Op: op, X: p.unary()}
		}
	}
	return p.postfix()
}

func (p *parser) postfix() Expr {
	x := p.primary()
	for {
		pos := p.curPos()
		if !p.accept(TokPunct, "[") {
			return x
		}
		x = &Index{Pos: pos, Base: x, Idx: p.expr()}
		p.expect(TokPunct, "]")
	}
}

func (p *parser) primary() Expr {
	pos := p.curPos()
	t := p.cur()
	switch {
	case t.Kind == TokInt:
		p.next()
		return &IntLit{Pos: pos, Val: t.Int}
	case t.Kind == TokFloat:
		p.next()
		return &FloatLit{Pos: pos, Val: t.Float}
	case t.Kind == TokString:
		p.next()
		return &StrLit{Pos: pos, Val: t.Str}
	case t.Kind == TokKeyword && (t.Text == "int" || t.Text == "float"):
		// Cast: int(expr) or float(expr).
		p.next()
		p.expect(TokPunct, "(")
		to := IntType
		if t.Text == "float" {
			to = FloatType
		}
		c := &Cast{Pos: pos, To: to, X: p.expr()}
		p.expect(TokPunct, ")")
		return c
	case t.Kind == TokIdent:
		p.next()
		if v, ok := p.consts[t.Text]; ok {
			return &IntLit{Pos: pos, Val: v}
		}
		if !p.accept(TokPunct, "(") {
			return &Ident{Pos: pos, Name: t.Text}
		}
		c := &Call{Pos: pos, Name: t.Text}
		for !p.is(TokPunct, ")") {
			if len(c.Args) > 0 {
				p.expect(TokPunct, ",")
			}
			c.Args = append(c.Args, p.expr())
		}
		p.next() // )
		return c
	case p.accept(TokPunct, "("):
		x := p.expr()
		p.expect(TokPunct, ")")
		return x
	}
	fail(pos, "expected expression, found %q", t.String())
	return nil
}
