// Package tpcw models the TPC-W transactional web e-commerce benchmark used
// by the paper's evaluation (§IV.A): the 14 interaction types of the online
// bookstore, the Browsing/Shopping/Ordering traffic mixes, and the Remote
// Browser Emulator (RBE) with emulated browsers (EBs) issuing sessions of
// requests separated by exponential think times.
//
// Each interaction carries a resource profile — CPU demand at the
// application and database tiers and the memory working set the database
// portion touches — calibrated so that, as on the paper's testbed, the
// browsing mix pressures the database tier while the ordering mix pressures
// the application tier.
package tpcw

import "fmt"

// Interaction enumerates the 14 TPC-W web interactions.
type Interaction int

// The 14 TPC-W interaction types.
const (
	Home Interaction = iota + 1
	NewProducts
	BestSellers
	ProductDetail
	SearchRequest
	SearchResults
	ShoppingCart
	CustomerRegistration
	BuyRequest
	BuyConfirm
	OrderInquiry
	OrderDisplay
	AdminRequest
	AdminConfirm
)

// NumInteractions is the count of TPC-W interaction types.
const NumInteractions = 14

var interactionNames = map[Interaction]string{
	Home:                 "Home",
	NewProducts:          "NewProducts",
	BestSellers:          "BestSellers",
	ProductDetail:        "ProductDetail",
	SearchRequest:        "SearchRequest",
	SearchResults:        "SearchResults",
	ShoppingCart:         "ShoppingCart",
	CustomerRegistration: "CustomerRegistration",
	BuyRequest:           "BuyRequest",
	BuyConfirm:           "BuyConfirm",
	OrderInquiry:         "OrderInquiry",
	OrderDisplay:         "OrderDisplay",
	AdminRequest:         "AdminRequest",
	AdminConfirm:         "AdminConfirm",
}

// String returns the interaction's TPC-W name.
func (i Interaction) String() string {
	if n, ok := interactionNames[i]; ok {
		return n
	}
	return fmt.Sprintf("Interaction(%d)", int(i))
}

// Valid reports whether i is one of the 14 TPC-W interactions.
func (i Interaction) Valid() bool {
	return i >= Home && i <= AdminConfirm
}

// Interactions returns all 14 interaction types in canonical order.
func Interactions() []Interaction {
	out := make([]Interaction, 0, NumInteractions)
	for i := Home; i <= AdminConfirm; i++ {
		out = append(out, i)
	}
	return out
}

// Profile describes the per-tier resource demand of one interaction:
// the mean CPU seconds consumed on the application and database tiers, the
// coefficient of variation of those demands, and the memory working set (in
// MB) the database portion touches. Demands are calibrated relative to a
// normalized 1.0-speed CPU; the server model scales them by machine speed.
type Profile struct {
	AppDemand float64 // mean app-tier CPU seconds
	DBDemand  float64 // mean DB-tier CPU seconds
	CV        float64 // coefficient of variation of both demands
	DBWorkMB  float64 // DB working set touched, in MB
	AppWorkMB float64 // app-tier working set (session state, buffers), in MB
}

// DefaultProfiles returns the per-interaction resource profiles. Browse
// interactions that search or rank the catalog (BestSellers, SearchResults,
// NewProducts) are database-heavy with large working sets — the "small
// percentage of heavy requests" that overload the database under the
// browsing mix (§V.B). Ordering interactions carry heavier application-tier
// logic (session state, form handling, payment authorization) with light,
// index-backed database access.
func DefaultProfiles() map[Interaction]Profile {
	return map[Interaction]Profile{
		Home:                 {AppDemand: 0.004, DBDemand: 0.003, CV: 0.4, DBWorkMB: 1.0, AppWorkMB: 0.5},
		NewProducts:          {AppDemand: 0.005, DBDemand: 0.030, CV: 0.6, DBWorkMB: 14, AppWorkMB: 0.6},
		BestSellers:          {AppDemand: 0.005, DBDemand: 0.065, CV: 0.7, DBWorkMB: 30, AppWorkMB: 0.6},
		ProductDetail:        {AppDemand: 0.004, DBDemand: 0.004, CV: 0.4, DBWorkMB: 1.2, AppWorkMB: 0.4},
		SearchRequest:        {AppDemand: 0.003, DBDemand: 0.001, CV: 0.3, DBWorkMB: 0.2, AppWorkMB: 0.3},
		SearchResults:        {AppDemand: 0.006, DBDemand: 0.050, CV: 0.7, DBWorkMB: 24, AppWorkMB: 0.7},
		ShoppingCart:         {AppDemand: 0.022, DBDemand: 0.004, CV: 0.4, DBWorkMB: 1.0, AppWorkMB: 1.6},
		CustomerRegistration: {AppDemand: 0.018, DBDemand: 0.002, CV: 0.4, DBWorkMB: 0.5, AppWorkMB: 1.4},
		BuyRequest:           {AppDemand: 0.028, DBDemand: 0.005, CV: 0.4, DBWorkMB: 1.2, AppWorkMB: 1.8},
		BuyConfirm:           {AppDemand: 0.038, DBDemand: 0.007, CV: 0.5, DBWorkMB: 1.6, AppWorkMB: 2.2},
		OrderInquiry:         {AppDemand: 0.012, DBDemand: 0.003, CV: 0.4, DBWorkMB: 0.8, AppWorkMB: 0.9},
		OrderDisplay:         {AppDemand: 0.018, DBDemand: 0.006, CV: 0.4, DBWorkMB: 1.4, AppWorkMB: 1.2},
		AdminRequest:         {AppDemand: 0.014, DBDemand: 0.003, CV: 0.4, DBWorkMB: 0.6, AppWorkMB: 1.0},
		AdminConfirm:         {AppDemand: 0.026, DBDemand: 0.008, CV: 0.5, DBWorkMB: 1.8, AppWorkMB: 1.6},
	}
}
