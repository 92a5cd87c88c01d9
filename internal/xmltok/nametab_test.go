package xmltok

import "testing"

// TestIsNameASCII: isName's byte-by-byte path for all-ASCII names agrees
// with the rune tables on every one- and two-byte ASCII string.
func TestIsNameASCII(t *testing.T) {
	for a := 0; a < 0x80; a++ {
		if s := []byte{byte(a)}; isName(s) != isNameRunes(s) {
			t.Errorf("isName(%q) = %v, rune tables say %v", s, isName(s), isNameRunes(s))
		}
		for b := 0; b < 0x80; b++ {
			if s := []byte{byte(a), byte(b)}; isName(s) != isNameRunes(s) {
				t.Errorf("isName(%q) = %v, rune tables say %v", s, isName(s), isNameRunes(s))
			}
		}
	}
	for _, s := range []string{"", "a", "_x", ":", "a1", "1a", "-a", ".a", "a-b.c", "é", "aé", "1é", "a b", "a\xff"} {
		if isName([]byte(s)) != isNameRunes([]byte(s)) {
			t.Errorf("isName(%q) = %v, rune tables say %v", s, isName([]byte(s)), isNameRunes([]byte(s)))
		}
	}
}
