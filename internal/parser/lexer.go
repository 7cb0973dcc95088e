// Package parser turns Prolog-style Datalog source text into an
// ast.Program. The grammar covers exactly the language of the paper's §1:
// ground facts (the EDB), function-free Horn rules (the IDB), and query
// rules for the distinguished predicate "goal". A `?- body.` form is
// accepted as sugar for a goal rule.
package parser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF     tokenKind = iota
	tokIdent             // lowercase-initial identifier or quoted atom: constants and predicate names
	tokVar               // uppercase- or underscore-initial identifier: variables
	tokNumber            // integer constant
	tokLParen            // (
	tokRParen            // )
	tokComma             // ,
	tokPeriod            // .
	tokImplies           // :- or <-
	tokQuery             // ?-
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVar:
		return "variable"
	case tokNumber:
		return "number"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokPeriod:
		return "'.'"
	case tokImplies:
		return "':-'"
	case tokQuery:
		return "'?-'"
	}
	return "unknown token"
}

// token is one lexeme. An unquoted identifier, variable, or number's text
// is a substring of the source, so it keeps the source alive: copy it
// before retaining it past the parse.
type token struct {
	kind   tokenKind
	text   string
	quoted bool // tokIdent produced by a quoted constant
	line   int
	col    int
}

// Error is a parse or lex error with source position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("parse error at line %d, column %d: %s", e.Line, e.Col, e.Msg)
}

// lexer scans the source string in place. ASCII bytes take a fast path;
// only bytes >= 0x80 are decoded as UTF-8, and an invalid byte reads as
// utf8.RuneError, one rune per byte. Columns count runes, not bytes.
type lexer struct {
	src  string
	pos  int // byte offset
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// runeAt decodes the rune at byte offset i and its width; 0 past the end.
func (l *lexer) runeAt(i int) (rune, int) {
	if i >= len(l.src) {
		return 0, 0
	}
	if b := l.src[i]; b < utf8.RuneSelf {
		return rune(b), 1
	}
	return utf8.DecodeRuneInString(l.src[i:])
}

func (l *lexer) peek() rune {
	r, _ := l.runeAt(l.pos)
	return r
}

func (l *lexer) peek2() rune {
	_, w := l.runeAt(l.pos)
	if w == 0 {
		return 0
	}
	r, _ := l.runeAt(l.pos + w)
	return r
}

func (l *lexer) advance() rune {
	r, w := l.runeAt(l.pos)
	l.pos += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func isLetter(r rune) bool {
	if r < utf8.RuneSelf {
		return 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z'
	}
	return unicode.IsLetter(r)
}

func isDigit(r rune) bool {
	if r < utf8.RuneSelf {
		return '0' <= r && r <= '9'
	}
	return unicode.IsDigit(r)
}

func isIdentRune(r rune) bool {
	return isLetter(r) || isDigit(r) || r == '_'
}

// identASCII and digitASCII are isIdentRune and isDigit over the ASCII
// bytes, for span's fast path.
var identASCII, digitASCII = asciiClass(isIdentRune), asciiClass(isDigit)

func asciiClass(ok func(rune) bool) *[utf8.RuneSelf]bool {
	var class [utf8.RuneSelf]bool
	for c := range class {
		class[c] = ok(rune(c))
	}
	return &class
}

// skipSpace consumes whitespace, % line comments, and /* */ block comments.
func (l *lexer) skipSpace() error {
	for l.pos < len(l.src) {
		switch c := l.src[l.pos]; {
		case c == '\n':
			l.pos++
			l.line++
			l.col = 1
		case c == ' ' || '\t' <= c && c <= '\r':
			l.pos++
			l.col++
		case c == '%':
			end := strings.IndexByte(l.src[l.pos:], '\n')
			if end < 0 {
				end = len(l.src) - l.pos
			}
			l.col += utf8.RuneCountInString(l.src[l.pos : l.pos+end])
			l.pos += end
		case c == '/' && l.peek2() == '*':
			startLine, startCol := l.line, l.col
			l.advance()
			l.advance()
			for {
				if l.pos >= len(l.src) {
					return &Error{Line: startLine, Col: startCol, Msg: "unterminated block comment"}
				}
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		case c >= utf8.RuneSelf && unicode.IsSpace(l.peek()):
			l.advance()
		default:
			return nil
		}
	}
	return nil
}

// span consumes the runes of a class that never holds a newline — ascii
// for the ASCII bytes, ok for the rest — and returns them as a substring
// of the source.
func (l *lexer) span(ascii *[utf8.RuneSelf]bool, ok func(rune) bool) string {
	start := l.pos
	for l.pos < len(l.src) {
		if c := l.src[l.pos]; c < utf8.RuneSelf {
			if !ascii[c] {
				break
			}
			l.pos++
		} else {
			r, w := utf8.DecodeRuneInString(l.src[l.pos:])
			if !ok(r) {
				break
			}
			l.pos += w
		}
		l.col++
	}
	return l.src[start:l.pos]
}

func (l *lexer) next() (token, error) {
	if err := l.skipSpace(); err != nil {
		return token{}, err
	}
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	r := l.peek()
	switch {
	case r == '(':
		l.advance()
		return token{kind: tokLParen, text: "(", line: line, col: col}, nil
	case r == ')':
		l.advance()
		return token{kind: tokRParen, text: ")", line: line, col: col}, nil
	case r == ',':
		l.advance()
		return token{kind: tokComma, text: ",", line: line, col: col}, nil
	case r == '.':
		l.advance()
		return token{kind: tokPeriod, text: ".", line: line, col: col}, nil
	case r == ':':
		l.advance()
		if l.peek() != '-' {
			return token{}, &Error{Line: line, Col: col, Msg: "expected '-' after ':'"}
		}
		l.advance()
		return token{kind: tokImplies, text: ":-", line: line, col: col}, nil
	case r == '<':
		l.advance()
		if l.peek() != '-' {
			return token{}, &Error{Line: line, Col: col, Msg: "expected '-' after '<'"}
		}
		l.advance()
		return token{kind: tokImplies, text: "<-", line: line, col: col}, nil
	case r == '?':
		l.advance()
		if l.peek() != '-' {
			return token{}, &Error{Line: line, Col: col, Msg: "expected '-' after '?'"}
		}
		l.advance()
		return token{kind: tokQuery, text: "?-", line: line, col: col}, nil
	case r == '\'' || r == '"':
		text, ok := l.quoted()
		if !ok {
			return token{}, &Error{Line: line, Col: col, Msg: "unterminated quoted constant"}
		}
		return token{kind: tokIdent, text: text, quoted: true, line: line, col: col}, nil
	case isDigit(r) || (r == '-' && isDigit(l.peek2())):
		start := l.pos
		if r == '-' {
			l.advance()
		}
		l.span(digitASCII, isDigit)
		return token{kind: tokNumber, text: l.src[start:l.pos], line: line, col: col}, nil
	case isLetter(r) || r == '_':
		text := l.span(identASCII, isIdentRune)
		if r == '_' || unicode.IsUpper(r) {
			return token{kind: tokVar, text: text, line: line, col: col}, nil
		}
		return token{kind: tokIdent, text: text, line: line, col: col}, nil
	default:
		return token{}, &Error{Line: line, Col: col, Msg: fmt.Sprintf("unexpected character %q", r)}
	}
}

// quoted consumes a quoted constant, the opening quote at the current
// position, and returns its text; ok is false when it is unterminated. A
// backslash takes the next character literally, except a newline: a
// constant never spans lines, since its rendering could not re-parse. The
// text is a substring of the source when the constant holds no escape and
// is valid UTF-8 (so decoding and re-encoding it would change nothing);
// otherwise it is built rune by rune, with invalid bytes read as
// utf8.RuneError.
func (l *lexer) quoted() (text string, ok bool) {
	quote := l.advance()
	start, plain := l.pos, true
	var b strings.Builder
	for {
		if l.pos >= len(l.src) || l.peek() == '\n' {
			return "", false
		}
		at := l.pos
		c := l.advance()
		if c == quote {
			if plain {
				return l.src[start:at], true
			}
			return b.String(), true
		}
		if c == '\\' || c == utf8.RuneError {
			if plain {
				plain = false
				b.WriteString(l.src[start:at])
			}
			if c == '\\' {
				if l.pos >= len(l.src) || l.peek() == '\n' {
					return "", false
				}
				c = l.advance()
			}
		}
		if !plain {
			b.WriteRune(c)
		}
	}
}
