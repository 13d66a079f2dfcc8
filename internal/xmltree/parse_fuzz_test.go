package xmltree_test

import (
	"testing"

	"xcluster/internal/datagen"
	"xcluster/internal/xmltree"
)

// parseSeeds are the hand-written seeds of FuzzParseXML: the constructs
// Parse must read exactly as encoding/xml does.
var parseSeeds = []string{
	`<a><b>5</b><c>Brass Compass</c><d>one two three four five six seven</d></a>`,
	`<a>&lt;&gt;&amp;&apos;&quot; x</a>`,
	`<a><b>&#65;&#x42;&#x63;&#0065;</b><c>&#xD800;</c></a>`,
	`<a>&#0;</a>`,
	`<a>&#x110000;</a>`,
	`<a>&#X41;</a>`,
	`<a>&bogus;</a>`,
	`<a>&amp</a>`,
	`<a><![CDATA[<not a tag> & ]]] ]]></a>`,
	`<a>x<![CDATA[]]>y</a>`,
	`<a>be<!-- note -->fore<?pi data?>after</a>`,
	`<a><!-- a -- b --></a>`,
	`<a><!---></a>`,
	"<!DOCTYPE a [<!ELEMENT a (#PCDATA)><!ENTITY e \"<x>\"><!-- c > -->]>\n<a>1</a>",
	`<!'><a/>`,
	`<x:a xmlns:x="urn:x"><x:b>7</x:b><c:d/></x:a>`,
	`<a:b:c/>`,
	`<:a>1</:a>`,
	`<a:>1</a:>`,
	`<x:a></y:a>`,
	`<site><item id="42" featured='yes' x:y="z" xmlns:x="u"><name>Brass</name></item><e k="&lt;&#x9;"/></site>`,
	`<a x="1"y="2"/>`,
	`<a x=1/>`,
	`<a x="<"/>`,
	`<a x="]]>"/>`,
	`<a  / >`,
	"\ufeff  \n<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a>1</a>",
	`<?xml version="1.0" encoding="latin1"?><a/>`,
	`<?xml version='1.1'?><a/>`,
	`<?xml encoding="Utf-8"?><a/>`,
	`<a/>trailing text`,
	`<a/>]]>`,
	`<a/>&bad;`,
	`<a/><b/>`,
	`<a/></a>`,
	`<a><b></a>`,
	`<a>`,
	`<1a/>`,
	`<a>` + "\x00" + `</a>`,
	"<a>\r\nx\ry\r\r\n</a>",
	"<a>caf\xc3\xa9 \xff</a>",
	"<élève>résumé</élève>",
	"<à/>",
	"<̀a/>",
	`<a> <b>1</b> mixed </a>`,
	`<a>  </a>`,
	"<a\u00b7b>1</a\u00b7b>",
	"<\u00b7a/>",
	"<a\u0300/>",
	"<?pi\u00e9 x?><a/>",
	"<?xml-stylesheet href='s'?><?xml version='1.0' encoding='UTF-8' ?><a/>",
	`<!DOCTYPE a "quoted > "><a/>`,
	`<!x<y>><a/>`,
	`<!x <!-- c > --> ><a/>`,
	`<!x<<>>><a/>`,
	`<!x<!y>><a/>`,
	`<!x "unterminated><a/>`,
	`<a/><!x><?y?><!-- z -->`,
	`<a><b/>text<c>1</c></a>`,
	`<a b="&#x20;&#10;&#13;" c="x&#x9;y"/>`,
	`<a xmlns="urn:d" xmlns:p="urn:p" p:q="1"><p:b/></a>`,
	`text before <a/>`,
	``,
	`<!-- only a comment -->`,
}

// FuzzParseXML checks Parse against the encoding/xml oracle parser on
// arbitrary documents, with and without attributes and with a custom
// hint: the same tree and dictionary wherever the oracle accepts, a
// rejection wherever it rejects, and never a panic.
func FuzzParseXML(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add([]byte(s))
	}
	f.Add(generatedXML(f, datagen.IMDB(datagen.IMDBConfig{Seed: 1, Movies: 4, Shows: 2})))
	f.Add(generatedXML(f, datagen.XMark(datagen.XMarkConfig{Seed: 1, Scale: 0.01})))
	f.Fuzz(func(t *testing.T, doc []byte) {
		xmltree.CheckParseOracle(t, doc)
	})
}

// TestParseMatchesOracleOnGenerators parses the IMDB and XMark generator
// documents at the sizes the tests use with both parsers.
func TestParseMatchesOracleOnGenerators(t *testing.T) {
	xmltree.CheckParseOracle(t, generatedXML(t, datagen.IMDB(datagen.IMDBConfig{Seed: 7, Scale: 0.2})))
	xmltree.CheckParseOracle(t, generatedXML(t, datagen.XMark(datagen.XMarkConfig{Seed: 7, Scale: 0.2})))
}
