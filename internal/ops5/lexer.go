package ops5

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind is the lexical category of a token.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokLParen
	tokRParen
	tokLBrace   // {
	tokRBrace   // }
	tokNegBrace // -{  (conjunctive negation opener)
	tokLDisj    // <<
	tokRDisj    // >>
	tokArrow    // -->
	tokMinus    // standalone - (CE negation)
	tokCaret    // ^attr (Text holds the attribute name)
	tokVar      // <x>  (Text holds x)
	tokPred     // <> < <= > >= <=> =
	tokSym      // bare symbol
	tokInt
	tokFloat
	tokString // |literal symbol with spaces|
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "eof"
	case tokLParen:
		return "("
	case tokRParen:
		return ")"
	case tokLBrace:
		return "{"
	case tokRBrace:
		return "}"
	case tokNegBrace:
		return "-{"
	case tokLDisj:
		return "<<"
	case tokRDisj:
		return ">>"
	case tokArrow:
		return "-->"
	case tokMinus:
		return "-"
	case tokCaret:
		return "^attr"
	case tokVar:
		return "variable"
	case tokPred:
		return "predicate"
	case tokSym:
		return "symbol"
	case tokInt:
		return "integer"
	case tokFloat:
		return "float"
	case tokString:
		return "string"
	}
	return "?"
}

type token struct {
	kind tokKind
	text string
	line int
}

// lexer splits OPS5 source into tokens. ';' starts a comment to end of line.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("ops5: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ';':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		default:
			return
		}
	}
}

// isSymChar reports whether c may appear inside a bare symbol.
func isSymChar(c byte) bool {
	switch c {
	case '(', ')', '{', '}', '^', ';', ' ', '\t', '\n', '\r', '<', '>', '|', 0:
		return false
	}
	return true
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpace()
	line := l.line
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: line}, nil
	}
	c := l.src[l.pos]
	switch c {
	case '(':
		l.pos++
		return token{kind: tokLParen, line: line}, nil
	case ')':
		l.pos++
		return token{kind: tokRParen, line: line}, nil
	case '{':
		l.pos++
		return token{kind: tokLBrace, line: line}, nil
	case '}':
		l.pos++
		return token{kind: tokRBrace, line: line}, nil
	case '^':
		l.pos++
		start := l.pos
		for l.pos < len(l.src) && isSymChar(l.src[l.pos]) {
			l.pos++
		}
		if l.pos == start {
			return token{}, l.errf("empty attribute name after ^")
		}
		return token{kind: tokCaret, text: l.src[start:l.pos], line: line}, nil
	case '|':
		l.pos++
		start := l.pos
		for l.pos < len(l.src) && l.src[l.pos] != '|' {
			if l.src[l.pos] == '\n' {
				l.line++
			}
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, l.errf("unterminated | string")
		}
		text := l.src[start:l.pos]
		l.pos++ // closing |
		return token{kind: tokString, text: text, line: line}, nil
	case '<':
		return l.lexAngle(line)
	case '>':
		if strings.HasPrefix(l.src[l.pos:], ">>") {
			l.pos += 2
			return token{kind: tokRDisj, line: line}, nil
		}
		if strings.HasPrefix(l.src[l.pos:], ">=") {
			l.pos += 2
			return token{kind: tokPred, text: ">=", line: line}, nil
		}
		l.pos++
		return token{kind: tokPred, text: ">", line: line}, nil
	case '=':
		l.pos++
		return token{kind: tokPred, text: "=", line: line}, nil
	case '-':
		// "-->", "-{", "-(", "-5", or bare "-".
		rest := l.src[l.pos:]
		switch {
		case strings.HasPrefix(rest, "-->"):
			l.pos += 3
			return token{kind: tokArrow, line: line}, nil
		case strings.HasPrefix(rest, "-{"):
			l.pos += 2
			return token{kind: tokNegBrace, line: line}, nil
		case len(rest) > 1 && (rest[1] >= '0' && rest[1] <= '9'):
			return l.lexNumberOrSym(line)
		default:
			l.pos++
			return token{kind: tokMinus, line: line}, nil
		}
	}
	if c >= '0' && c <= '9' || c == '+' {
		return l.lexNumberOrSym(line)
	}
	if isSymChar(c) {
		start := l.pos
		for l.pos < len(l.src) && isSymChar(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokSym, text: l.src[start:l.pos], line: line}, nil
	}
	return token{}, l.errf("unexpected character %q", rune(c))
}

// lexAngle handles tokens beginning with '<': variables <x>, the
// disjunction opener <<, and the predicates <, <=, <>, <=>.
func (l *lexer) lexAngle(line int) (token, error) {
	rest := l.src[l.pos:]
	switch {
	case strings.HasPrefix(rest, "<<"):
		l.pos += 2
		return token{kind: tokLDisj, line: line}, nil
	case strings.HasPrefix(rest, "<=>"):
		l.pos += 3
		return token{kind: tokPred, text: "<=>", line: line}, nil
	case strings.HasPrefix(rest, "<=") && !isVarStart(rest, 2):
		l.pos += 2
		return token{kind: tokPred, text: "<=", line: line}, nil
	case strings.HasPrefix(rest, "<>") && !isVarStart(rest, 1):
		l.pos += 2
		return token{kind: tokPred, text: "<>", line: line}, nil
	}
	// Try a variable: <name>
	end := 1
	for end < len(rest) && isSymChar(rest[end]) {
		end++
	}
	if end < len(rest) && rest[end] == '>' && end > 1 {
		l.pos += end + 1
		return token{kind: tokVar, text: rest[1:end], line: line}, nil
	}
	l.pos++
	return token{kind: tokPred, text: "<", line: line}, nil
}

// isVarStart reports whether rest[at:] begins a variable body followed by
// '>'; used to disambiguate "<=" (pred) from "<=x>"-style names (never
// produced in practice, but cheap to handle).
func isVarStart(rest string, at int) bool {
	i := at
	for i < len(rest) && isSymChar(rest[i]) {
		i++
	}
	return i > at && i < len(rest) && rest[i] == '>'
}

// lexNumberOrSym lexes a number, falling back to a symbol when the token
// contains non-numeric characters (e.g. "8-puzzle", "robot-1").
func (l *lexer) lexNumberOrSym(line int) (token, error) {
	start := l.pos
	if c := l.peekByte(); c == '-' || c == '+' {
		l.pos++
	}
	digits, dot := 0, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			digits++
			l.pos++
			continue
		}
		if c == '.' && !dot {
			dot = true
			l.pos++
			continue
		}
		break
	}
	// If the token continues with symbol characters it is a symbol.
	if l.pos < len(l.src) && isSymChar(l.src[l.pos]) {
		for l.pos < len(l.src) && isSymChar(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokSym, text: l.src[start:l.pos], line: line}, nil
	}
	if digits == 0 {
		return token{kind: tokSym, text: l.src[start:l.pos], line: line}, nil
	}
	text := l.src[start:l.pos]
	if dot {
		return token{kind: tokFloat, text: text, line: line}, nil
	}
	return token{kind: tokInt, text: text, line: line}, nil
}

// runes kept for unicode sanity in identifiers (currently ASCII only).
var _ = unicode.IsLetter
