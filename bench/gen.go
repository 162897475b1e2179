package main

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/metadata"
	"repro/internal/record"
)

// Dataset shape. The dimensions an answer depends on — key skew, group
// cardinalities, the share of rows the clean job drops — are fixed here and
// only the draws vary with the seed, so every seed gives the same amount of
// work.
const (
	numRestaurants = 5000
	numCities      = 16
	numCuisines    = 12
	zipfS          = 1.1

	// eventT0 is the event time of row 0 (2023-11-14T22:13:20Z) and
	// rowsPerMs the synthetic event-time rate: row i happened at
	// eventT0 + i/rowsPerMs, so event time is a function of the row index
	// and never of the wall clock.
	eventT0   = int64(1_700_000_000_000)
	rowsPerMs = 10
)

// statuses and their cumulative shares; "cancelled" rows are the ones the
// clean job filters out.
var (
	statuses  = []string{"delivered", "preparing", "placed", "picked_up", "cancelled"}
	statusCDF = []float64{0.55, 0.67, 0.77, 0.85, 1.0}
)

const droppedStatus = "cancelled"

// gen is a random-access row generator: row i is a pure function of
// (seed, i), so the producer, the reference evaluator and the tests all
// regenerate rows instead of storing them.
type gen struct {
	seed    uint64
	zipfCDF []float64
	cities  []string
	// rankOf inverts restaurantOf. A restaurant's city follows from its
	// popularity rank, not its id, so every seed gives each city the same
	// share of the rows and a query filtered on one city costs the same.
	rankOf []int32
}

func newGen(seed int64) *gen {
	g := &gen{seed: uint64(seed)*0x9e3779b97f4a7c15 + 0x1234567}
	g.zipfCDF = make([]float64, numRestaurants)
	var sum float64
	for k := range g.zipfCDF {
		sum += 1 / math.Pow(float64(k+1), zipfS)
		g.zipfCDF[k] = sum
	}
	for k := range g.zipfCDF {
		g.zipfCDF[k] /= sum
	}
	g.cities = make([]string, numCities)
	for c := range g.cities {
		g.cities[c] = "city_" + strconv.Itoa(100 + c)[1:]
	}
	g.rankOf = make([]int32, numRestaurants)
	for rank := range g.rankOf {
		g.rankOf[g.restaurantOf(rank)] = int32(rank)
	}
	return g
}

// mix is splitmix64's finalizer: a bijective hash good enough to turn
// (seed, stream, index) into independent uniform draws.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns the k-th uniform draw in [0,1) of row i on a stream.
func (g *gen) draw(stream, i, k uint64) float64 {
	h := mix(g.seed ^ mix(stream<<56^i<<3^k))
	return float64(h>>11) / (1 << 53)
}

// restaurantOf maps a popularity rank to a restaurant id, so the popular
// restaurants differ from seed to seed. The multiplier is coprime with
// numRestaurants, which makes the map a bijection.
func (g *gen) restaurantOf(rank int) int64 {
	return int64((uint64(rank)*2654435761 + g.seed%numRestaurants) % numRestaurants)
}

// cityOf places each restaurant in one city.
func (g *gen) cityOf(restaurant int64) string {
	return g.cities[int(g.rankOf[restaurant])%numCities]
}

func (g *gen) cuisineOf(restaurant int64) string {
	return "cuisine_" + strconv.Itoa(int(100 + mix(uint64(restaurant)+g.seed*3)%numCuisines))[1:]
}

// Streams of draws: live orders and yesterday's archived orders.
const (
	streamLive uint64 = 1
	streamDay  uint64 = 2
)

// eventTime is the synthetic event time of live row i.
func eventTime(i int64) int64 { return eventT0 + i/rowsPerMs }

// order builds order row i of a stream. Amounts are multiples of 0.25 so
// float sums are exact in any order and the reference check can be strict.
func (g *gen) order(stream uint64, i int64) record.Record {
	rank := sort.SearchFloat64s(g.zipfCDF, g.draw(stream, uint64(i), 0))
	if rank >= numRestaurants {
		rank = numRestaurants - 1
	}
	restaurant := g.restaurantOf(rank)
	status := statuses[sort.SearchFloat64s(statusCDF, g.draw(stream, uint64(i), 1))]
	amount := 5 + float64(int(g.draw(stream, uint64(i), 2)*400))/4
	ts := eventTime(i)
	prefix := "o"
	if stream == streamDay {
		prefix = "d"
		ts = eventT0 - 86_400_000 + i
	}
	return record.Record{
		"order_id":      prefix + strconv.FormatInt(i, 10),
		"restaurant_id": restaurant,
		"city":          g.cityOf(restaurant),
		"status":        status,
		"amount":        amount,
		"ts":            ts,
	}
}

// liveOrder is row i of the produced stream.
func (g *gen) liveOrder(i int64) record.Record { return g.order(streamLive, i) }

// passes reports whether the clean job keeps the row.
func passes(r record.Record) bool { return r["status"] != droppedStatus }

// restaurant builds dimension row id of hive.restaurants.
func (g *gen) restaurant(id int64) record.Record {
	return record.Record{
		"restaurant_id": id,
		"cuisine":       g.cuisineOf(id),
		"city":          g.cityOf(id),
		"rating":        1 + float64(mix(uint64(id)+g.seed*7)%17)/4,
	}
}

func ordersSchema(name string) *metadata.Schema {
	return &metadata.Schema{
		Name: name,
		Fields: []metadata.Field{
			{Name: "order_id", Type: metadata.TypeString},
			{Name: "restaurant_id", Type: metadata.TypeLong, Dimension: true},
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "status", Type: metadata.TypeString, Dimension: true},
			{Name: "amount", Type: metadata.TypeDouble},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField: "ts",
	}
}

func restaurantsSchema() *metadata.Schema {
	return &metadata.Schema{
		Name: "restaurants",
		Fields: []metadata.Field{
			{Name: "restaurant_id", Type: metadata.TypeLong, Dimension: true},
			{Name: "cuisine", Type: metadata.TypeString, Dimension: true},
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "rating", Type: metadata.TypeDouble},
		},
	}
}
