package lang

import (
	"strconv"
	"strings"
)

// lexer tokenizes DapC source.
type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func (l *lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *lexer) adv() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// skipSpace consumes whitespace and comments.
func (l *lexer) skipSpace() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.adv()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.adv()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.adv()
			l.adv()
			for {
				if l.off >= len(l.src) {
					fail(start, "unterminated block comment")
				}
				if l.peek() == '*' && l.peek2() == '/' {
					l.adv()
					l.adv()
					break
				}
				l.adv()
			}
		default:
			return
		}
	}
}

// twoCharPuncts are matched before single-character punctuation.
var twoCharPuncts = []string{"==", "!=", "<=", ">=", "&&", "||", "<<", ">>"}

// next returns the next token.
func (l *lexer) next() Token {
	l.skipSpace()
	pos := l.pos()
	tok := Token{Line: pos.Line, Col: pos.Col}
	if l.off >= len(l.src) {
		tok.Kind = TokEOF
		return tok
	}
	c := l.peek()
	switch {
	case isDigit(c):
		start := l.off
		isFloat := false
		for l.off < len(l.src) && (isDigit(l.peek()) || l.peek() == '.' || l.peek() == 'x' ||
			(l.peek() >= 'a' && l.peek() <= 'f') || (l.peek() >= 'A' && l.peek() <= 'F') ||
			l.peek() == 'e' || l.peek() == 'E') {
			if l.peek() == '.' {
				isFloat = true
			}
			l.adv()
		}
		text := l.src[start:l.off]
		// 'e' inside a hex literal is a digit, not an exponent.
		if !strings.HasPrefix(text, "0x") && strings.ContainsAny(text, ".eE") {
			isFloat = true
		}
		tok.Text = text
		if isFloat {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				fail(pos, "bad float literal %q", text)
			}
			tok.Kind = TokFloat
			tok.Float = f
		} else {
			v, err := strconv.ParseInt(text, 0, 64)
			if err != nil {
				fail(pos, "bad integer literal %q", text)
			}
			tok.Kind = TokInt
			tok.Int = v
		}
		return tok
	case isAlpha(c):
		start := l.off
		for l.off < len(l.src) && (isAlpha(l.peek()) || isDigit(l.peek())) {
			l.adv()
		}
		tok.Text = l.src[start:l.off]
		if keywords[tok.Text] {
			tok.Kind = TokKeyword
		} else {
			tok.Kind = TokIdent
		}
		return tok
	case c == '"':
		l.adv()
		var sb strings.Builder
		for {
			if l.off >= len(l.src) {
				fail(pos, "unterminated string literal")
			}
			ch := l.adv()
			if ch == '"' {
				break
			}
			if ch == '\\' {
				if l.off >= len(l.src) {
					fail(pos, "unterminated escape")
				}
				esc := l.adv()
				switch esc {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '"':
					sb.WriteByte('"')
				case '\\':
					sb.WriteByte('\\')
				case '0':
					sb.WriteByte(0)
				default:
					fail(pos, "unknown escape \\%c", esc)
				}
				continue
			}
			sb.WriteByte(ch)
		}
		tok.Kind = TokString
		tok.Str = sb.String()
		tok.Text = sb.String()
		return tok
	default:
		for _, p := range twoCharPuncts {
			if strings.HasPrefix(l.src[l.off:], p) {
				l.adv()
				l.adv()
				tok.Kind = TokPunct
				tok.Text = p
				return tok
			}
		}
		if !strings.ContainsRune("+-*/%<>=!&|^(){}[],;", rune(c)) {
			fail(pos, "unexpected character %q", c)
		}
		l.adv()
		tok.Kind = TokPunct
		tok.Text = string(c)
		return tok
	}
}

// lex tokenizes the whole input (trailing EOF token included).
func lex(src string) []Token {
	l := &lexer{src: src, line: 1, col: 1}
	var out []Token
	for {
		t := l.next()
		out = append(out, t)
		if t.Kind == TokEOF {
			return out
		}
	}
}
