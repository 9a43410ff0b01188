package hlang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind classifies tokens.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokDuration // e.g. 100ms — used in target specs
	tokPunct    // operators and delimiters
	tokNewline
)

type token struct {
	kind tokKind
	text string
	pos  Pos
	i    int64
	f    float64
	s    string
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokNewline:
		return "newline"
	default:
		return strconv.Quote(t.text)
	}
}

// Error is a positioned syntax or semantic error.
type Error struct {
	P   Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.P, e.Msg) }

func errAt(p Pos, format string, args ...any) *Error {
	return &Error{P: p, Msg: fmt.Sprintf(format, args...)}
}

// lex tokenizes src. Newlines are significant (statement separators);
// comments run from '#' to end of line.
func lex(src string) ([]token, error) {
	var toks []token
	line, col := 1, 1
	i := 0
	emit := func(t token) { toks = append(toks, t) }
	for i < len(src) {
		c := src[i]
		pos := Pos{Line: line, Col: col}
		switch {
		case c == '\n':
			emit(token{kind: tokNewline, text: "\\n", pos: pos})
			line++
			col = 1
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
			col++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '"':
			j := i + 1
			var b strings.Builder
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' && j+1 < len(src) {
					j++
					switch src[j] {
					case 'n':
						b.WriteByte('\n')
					case 't':
						b.WriteByte('\t')
					default:
						b.WriteByte(src[j])
					}
				} else if src[j] == '\n' {
					return nil, errAt(pos, "unterminated string literal")
				} else {
					b.WriteByte(src[j])
				}
				j++
			}
			if j >= len(src) {
				return nil, errAt(pos, "unterminated string literal")
			}
			emit(token{kind: tokString, text: src[i : j+1], pos: pos, s: b.String()})
			col += j + 1 - i
			i = j + 1
		case unicode.IsDigit(rune(c)):
			j := i
			isFloat := false
			for j < len(src) && (unicode.IsDigit(rune(src[j])) || src[j] == '.') {
				if src[j] == '.' {
					if isFloat {
						break
					}
					isFloat = true
				}
				j++
			}
			text := src[i:j]
			// Duration suffix: ms or s (target facet latencies).
			if j < len(src) && (src[j] == 'm' || src[j] == 's') {
				k := j
				for k < len(src) && unicode.IsLetter(rune(src[k])) {
					k++
				}
				unit := src[j:k]
				if unit == "ms" || unit == "s" {
					f, err := strconv.ParseFloat(text, 64)
					if err != nil {
						return nil, errAt(pos, "bad duration %q", src[i:k])
					}
					if unit == "s" {
						f *= 1000
					}
					emit(token{kind: tokDuration, text: src[i:k], pos: pos, f: f})
					col += k - i
					i = k
					continue
				}
			}
			if isFloat {
				f, err := strconv.ParseFloat(text, 64)
				if err != nil {
					return nil, errAt(pos, "bad float %q", text)
				}
				emit(token{kind: tokFloat, text: text, pos: pos, f: f})
			} else {
				n, err := strconv.ParseInt(text, 10, 64)
				if err != nil {
					return nil, errAt(pos, "bad integer %q", text)
				}
				emit(token{kind: tokInt, text: text, pos: pos, i: n})
			}
			col += j - i
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			emit(token{kind: tokIdent, text: src[i:j], pos: pos})
			col += j - i
			i = j
		default:
			// Multi-char operators first.
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case ":-", ":=", "<-", "==", "!=", "<=", ">=", "&&", "||":
				emit(token{kind: tokPunct, text: two, pos: pos})
				i += 2
				col += 2
				continue
			}
			switch c {
			case '(', ')', '{', '}', '[', ']', ',', ':', '.', '=', '<', '>', '!', '+', '-', '*', '/', '@':
				emit(token{kind: tokPunct, text: string(c), pos: pos})
				i++
				col++
			default:
				return nil, errAt(pos, "unexpected character %q", string(c))
			}
		}
	}
	emit(token{kind: tokEOF, text: "", pos: Pos{Line: line, Col: col}})
	return toks, nil
}
