package geodata

// City is a gazetteer entry used to anchor synthetic urban clusters of
// cellular infrastructure and to define the metro windows of the impact
// analysis (Figures 11-13).
type City struct {
	Name     string
	State    string // postal abbreviation
	Lon, Lat float64
	MetroPop int // metro-area population estimate (2018)
}

// Cities is the gazetteer of major urban anchors, roughly the top metro
// areas plus the cities the paper calls out.
var Cities = []City{
	{"New York", "NY", -74.0060, 40.7128, 19980000},
	{"Los Angeles", "CA", -118.2437, 34.0522, 13290000},
	{"Chicago", "IL", -87.6298, 41.8781, 9490000},
	{"Dallas", "TX", -96.7970, 32.7767, 7540000},
	{"Houston", "TX", -95.3698, 29.7604, 6990000},
	{"Washington", "DC", -77.0369, 38.9072, 6250000},
	{"Miami", "FL", -80.1918, 25.7617, 6170000},
	{"Philadelphia", "PA", -75.1652, 39.9526, 6100000},
	{"Atlanta", "GA", -84.3880, 33.7490, 5950000},
	{"Phoenix", "AZ", -112.0740, 33.4484, 4860000},
	{"Boston", "MA", -71.0589, 42.3601, 4880000},
	{"San Francisco", "CA", -122.4194, 37.7749, 4730000},
	{"Riverside", "CA", -117.3961, 33.9533, 4620000},
	{"Detroit", "MI", -83.0458, 42.3314, 4330000},
	{"Seattle", "WA", -122.3321, 47.6062, 3940000},
	{"Minneapolis", "MN", -93.2650, 44.9778, 3630000},
	{"San Diego", "CA", -117.1611, 32.7157, 3340000},
	{"Tampa", "FL", -82.4572, 27.9506, 3140000},
	{"Denver", "CO", -104.9903, 39.7392, 2930000},
	{"St. Louis", "MO", -90.1994, 38.6270, 2810000},
	{"Baltimore", "MD", -76.6122, 39.2904, 2800000},
	{"Charlotte", "NC", -80.8431, 35.2271, 2570000},
	{"Orlando", "FL", -81.3792, 28.5383, 2570000},
	{"San Antonio", "TX", -98.4936, 29.4241, 2520000},
	{"Portland", "OR", -122.6765, 45.5231, 2480000},
	{"Sacramento", "CA", -121.4944, 38.5816, 2340000},
	{"Pittsburgh", "PA", -79.9959, 40.4406, 2320000},
	{"Las Vegas", "NV", -115.1398, 36.1699, 2230000},
	{"Cincinnati", "OH", -84.5120, 39.1031, 2190000},
	{"Austin", "TX", -97.7431, 30.2672, 2170000},
	{"Kansas City", "MO", -94.5786, 39.0997, 2140000},
	{"Columbus", "OH", -82.9988, 39.9612, 2110000},
	{"Indianapolis", "IN", -86.1581, 39.7684, 2050000},
	{"Cleveland", "OH", -81.6944, 41.4993, 2060000},
	{"San Jose", "CA", -121.8863, 37.3382, 1990000},
	{"Nashville", "TN", -86.7816, 36.1627, 1930000},
	{"Virginia Beach", "VA", -75.9780, 36.8529, 1730000},
	{"Providence", "RI", -71.4128, 41.8240, 1620000},
	{"Milwaukee", "WI", -87.9065, 43.0389, 1580000},
	{"Jacksonville", "FL", -81.6557, 30.3322, 1530000},
	{"Oklahoma City", "OK", -97.5164, 35.4676, 1400000},
	{"Raleigh", "NC", -78.6382, 35.7796, 1360000},
	{"Memphis", "TN", -90.0490, 35.1495, 1350000},
	{"Richmond", "VA", -77.4360, 37.5407, 1290000},
	{"New Orleans", "LA", -90.0715, 29.9511, 1270000},
	{"Louisville", "KY", -85.7585, 38.2527, 1260000},
	{"Salt Lake City", "UT", -111.8910, 40.7608, 1220000},
	{"Hartford", "CT", -72.6823, 41.7658, 1210000},
	{"Buffalo", "NY", -78.8784, 42.8864, 1130000},
	{"Birmingham", "AL", -86.8025, 33.5207, 1080000},
	{"Fresno", "CA", -119.7871, 36.7378, 990000},
	{"Tucson", "AZ", -110.9747, 32.2226, 1040000},
	{"Tulsa", "OK", -95.9928, 36.1540, 990000},
	{"Omaha", "NE", -95.9345, 41.2565, 940000},
	{"El Paso", "TX", -106.4850, 31.7619, 840000},
	{"Albuquerque", "NM", -106.6504, 35.0844, 910000},
	{"Bakersfield", "CA", -119.0187, 35.3733, 890000},
	{"Columbia", "SC", -81.0348, 34.0007, 830000},
	{"Greenville", "SC", -82.3940, 34.8526, 900000},
	{"Charleston", "SC", -79.9311, 32.7765, 790000},
	{"Boise", "ID", -116.2023, 43.6150, 730000},
	{"Little Rock", "AR", -92.2896, 34.7465, 740000},
	{"Des Moines", "IA", -93.6091, 41.5868, 690000},
	{"Spokane", "WA", -117.4260, 47.6588, 570000},
	{"Wichita", "KS", -97.3375, 37.6872, 640000},
	{"Colorado Springs", "CO", -104.8214, 38.8339, 740000},
	{"Reno", "NV", -119.8138, 39.5296, 470000},
	{"Fargo", "ND", -96.7898, 46.8772, 240000},
	{"Sioux Falls", "SD", -96.7311, 43.5446, 260000},
	{"Billings", "MT", -108.5007, 45.7833, 180000},
	{"Cheyenne", "WY", -104.8202, 41.1400, 99000},
	{"Burlington", "VT", -73.2121, 44.4759, 220000},
	{"Portland ME", "ME", -70.2553, 43.6591, 530000},
	{"Manchester", "NH", -71.4548, 42.9956, 410000},
	{"Jackson", "MS", -90.1848, 32.2988, 580000},
	{"Shreveport", "LA", -93.7502, 32.5252, 440000},
	{"Knoxville", "TN", -83.9207, 35.9606, 870000},
	{"Tallahassee", "FL", -84.2807, 30.4383, 380000},
	{"Savannah", "GA", -81.0998, 32.0809, 390000},
	{"Wilmington", "NC", -77.9447, 34.2257, 290000},
	{"Grand Junction", "CO", -108.5506, 39.0639, 150000},
	{"Provo", "UT", -111.6585, 40.2338, 630000},
	{"Santa Rosa", "CA", -122.7141, 38.4404, 500000},
	{"Redding", "CA", -122.3917, 40.5865, 180000},
	{"Eugene", "OR", -123.0868, 44.0521, 380000},
	{"Missoula", "MT", -113.9940, 46.8721, 120000},
	{"Santa Fe", "NM", -105.9378, 35.6870, 150000},
	{"Flagstaff", "AZ", -111.6513, 35.1983, 140000},
	{"St. George", "UT", -113.5684, 37.0965, 170000},
	{"Green Bay", "WI", -88.0133, 44.5133, 320000},
	{"Madison", "WI", -89.4012, 43.0731, 660000},
	{"Duluth", "MN", -92.1005, 46.7867, 280000},
	{"Casper", "WY", -106.3131, 42.8666, 80000},
	{"Rapid City", "SD", -103.2310, 44.0805, 140000},
}

// MetroWindow is a named analysis window around a metro area, used for the
// metro-impact comparison (Figure 12) and the detail maps (Figure 13).
type MetroWindow struct {
	Name      string
	AnchorLon float64
	AnchorLat float64
	RadiusKM  float64
}

// PaperMetros are the metro areas §3.7 compares. Radii approximate each
// metro's commute shed.
var PaperMetros = []MetroWindow{
	{"San Francisco", -122.2711, 37.6, 90},
	{"Los Angeles", -118.0, 34.0, 110},
	{"San Diego", -117.1611, 32.9, 70},
	{"Salt Lake City", -111.8910, 40.7608, 70},
	{"Denver", -104.9903, 39.7392, 80},
	{"Phoenix", -112.0740, 33.4484, 80},
	{"Philadelphia", -75.1652, 39.9526, 70},
	{"Orlando", -81.3792, 28.5383, 70},
	{"Miami", -80.3, 26.1, 90},
	{"Sacramento", -121.4944, 38.5816, 70},
	{"Las Vegas", -115.1398, 36.1699, 60},
	{"New York", -74.0060, 40.7128, 90},
}

// BigCounty anchors the largest US counties (the population centers whose
// density classes drive the Figure 10-12 impact analysis). The county
// synthesizer pins a county seed at each anchor and assigns it the listed
// population before distributing the state remainder.
type BigCounty struct {
	Name     string
	State    string
	Lon, Lat float64
	Pop      int
}

// BigCounties lists counties with more than ~1.5M residents (the paper's
// "very dense" class) plus a few just below for the "dense" class tests.
var BigCounties = []BigCounty{
	{"Los Angeles", "CA", -118.2437, 34.0522, 10100000},
	{"Cook", "IL", -87.6298, 41.8781, 5180000},
	{"Harris", "TX", -95.3698, 29.7604, 4700000},
	{"Maricopa", "AZ", -112.0740, 33.4484, 4410000},
	{"San Diego", "CA", -117.1611, 32.7157, 3340000},
	{"Orange", "CA", -117.8311, 33.7175, 3190000},
	{"Miami-Dade", "FL", -80.1918, 25.7617, 2760000},
	{"Dallas", "TX", -96.7970, 32.7767, 2640000},
	{"Kings", "NY", -73.9442, 40.6782, 2580000},
	{"Riverside", "CA", -117.3961, 33.9533, 2450000},
	{"Queens", "NY", -73.7949, 40.7282, 2280000},
	{"Clark", "NV", -115.1398, 36.1699, 2230000},
	{"King", "WA", -122.3321, 47.6062, 2230000},
	{"San Bernardino", "CA", -117.2898, 34.1083, 2170000},
	{"Tarrant", "TX", -97.3208, 32.7555, 2080000},
	{"Bexar", "TX", -98.4936, 29.4241, 1990000},
	{"Broward", "FL", -80.1373, 26.1224, 1950000},
	{"Santa Clara", "CA", -121.8863, 37.3382, 1930000},
	{"Wayne", "MI", -83.0458, 42.3314, 1750000},
	{"Alameda", "CA", -122.2711, 37.8044, 1660000},
	{"Middlesex", "MA", -71.1097, 42.3736, 1610000},
	{"Philadelphia", "PA", -75.1652, 39.9526, 1580000},
	{"Palm Beach", "FL", -80.0534, 26.7056, 1490000},
	{"Hillsborough", "FL", -82.4572, 27.9506, 1440000},
	{"New York", "NY", -73.9712, 40.7831, 1630000},
}
