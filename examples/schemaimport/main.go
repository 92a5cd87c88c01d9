// Schemaimport runs the modern tool-chain variant of the paper's pipeline:
// the provider documents its feed with an XML Schema (whose identity
// constraints fall in the paper's key class K̄); the consumer imports those
// constraints, streams a large feed through the one-pass validator, and
// derives a normalized SQL schema with provable keys.
//
//	go run ./examples/schemaimport [-orders N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"xkprop"
)

const providerXSD = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="orders">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="order" maxOccurs="unbounded">
          <xs:key name="itemKey">
            <xs:selector xpath="item"/>
            <xs:field xpath="@sku"/>
          </xs:key>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
    <xs:key name="orderKey">
      <xs:selector xpath=".//order"/>
      <xs:field xpath="@id"/>
    </xs:key>
    <xs:unique name="warehouseUnique">
      <xs:selector xpath=".//item"/>
      <xs:field xpath="@warehouse"/>
    </xs:unique>
  </xs:element>
</xs:schema>`

const universalRule = `
rule PO(orderId: oi, itemSku: sk, itemWh: wh, itemQty: qt) {
  o := root / //order
  oi := o / @id
  it := o / item
  sk := it / @sku
  wh := it / @warehouse
  qt := it / @qty
}
`

func makeFeed(orders int, corrupt bool) string {
	var b strings.Builder
	b.WriteString("<orders>\n")
	wh := 0
	for i := 0; i < orders; i++ {
		fmt.Fprintf(&b, `  <order id="o%d">`+"\n", i)
		for j := 0; j < 3; j++ {
			sku := fmt.Sprintf("sku%d", j)
			if corrupt && i == orders/2 && j == 2 {
				sku = "sku1" // duplicate within the order
			}
			wh++
			fmt.Fprintf(&b, `    <item sku="%s" warehouse="w%d" qty="%d"/>`+"\n", sku, wh, 1+j)
		}
		b.WriteString("  </order>\n")
	}
	b.WriteString("</orders>\n")
	return b.String()
}

func main() {
	orders := flag.Int("orders", 1000, "number of orders in the synthetic feed")
	flag.Parse()

	// 1. Import the provider's identity constraints as K̄ keys.
	keys, warnings, err := xkprop.XSDImportString(providerXSD)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("imported %d keys from the provider's XML Schema:\n", len(keys))
	for _, k := range keys {
		fmt.Println("  " + k.String())
	}
	for _, w := range warnings {
		fmt.Println("  note: " + w)
	}

	// 2. Stream-validate a large feed in one pass.
	feed := makeFeed(*orders, false)
	vs, err := xkprop.StreamValidate(strings.NewReader(feed), keys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstreamed %d orders: %d violation(s)\n", *orders, len(vs))

	// A corrupted feed is rejected mid-stream.
	bad := makeFeed(*orders, true)
	vs, err = xkprop.StreamValidate(strings.NewReader(bad), keys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corrupted feed: %d violation(s), first: %s\n", len(vs), vs[0])

	// 3. Derive the relational design: cover, BCNF, SQL.
	tr, err := xkprop.ParseTransformationString(universalRule)
	if err != nil {
		log.Fatal(err)
	}
	u := tr.Rules[0]
	cover := xkprop.MinimumCover(keys, u)
	fmt.Printf("\npropagated FD cover (%d):\n%s", len(cover), xkprop.FormatFDs(u.Schema, cover))
	frags := xkprop.BCNF(cover, u.Schema.All())
	opts := xkprop.SQLOptions{Dialect: "sqlite", TablePrefix: "po_"}
	fmt.Println("\ngenerated DDL:")
	fmt.Print(xkprop.SQLDDL(xkprop.SQLFromFragments(u.Schema, frags, opts), opts))

	// 4. Spot-check a propagation question with an explanation.
	eng := xkprop.NewEngine(keys, u)
	fd, _ := xkprop.ParseFD(u.Schema, "orderId, itemSku -> itemQty")
	exs, err := eng.Explain(context.Background(), fd)
	if err != nil {
		log.Fatal(err)
	}
	for _, ex := range exs {
		fmt.Println()
		fmt.Print(ex.String())
	}
}
