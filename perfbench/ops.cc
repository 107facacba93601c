#include "perfbench/ops.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "src/common/rng.h"
#include "src/workloads/queries.h"

namespace perfbench {

namespace {

using gopt::Language;
using gopt::Rng;
using gopt::WorkloadQuery;

// Distinct parameter draws per template. Each draw costs one warm-up run
// per set-up and one untimed reference run. Both workloads need many: a
// run's p99 lies among its few heaviest draws and each template's median
// among its middle ones, so with a handful of draws they would follow which
// hubs a seed happened to pick. Ad-hoc ops are one per template because
// every op plans from scratch anyway.
constexpr int kIcDraws = 48;
constexpr int kBiDraws = 20;

// The generator's dates span 2010-2022 and its birthdays 1950-2005.
constexpr int kFirstYear = 2010, kLastYear = 2022;
constexpr int kFirstBirthYear = 1950, kLastBirthYear = 2005;

std::string Jan1(int64_t year) { return std::to_string(year) + "0101"; }

// The value pools parameters are drawn from: every value of its domain in
// the generated graph, in vertex-id order, drawn uniformly. The generator's
// degrees are power-law and its tag and place popularity zipf-skewed, so
// some draws land on hubs with several times the work; that tail is part
// of the workload.
struct Pools {
  std::vector<gopt::VertexId> persons;
  std::vector<std::string> countries, cities, tags, tag_classes;
};

// The names of `type`'s vertices whose `type` property equals `kind` when
// given.
std::vector<std::string> Names(const gopt::PropertyGraph& g,
                               const std::string& type,
                               const std::string& kind = "") {
  std::vector<std::string> out;
  for (gopt::VertexId v :
       g.VerticesOfType(*g.schema().FindVertexType(type))) {
    if (!kind.empty() && g.GetVertexProp(v, "type").ToString() != kind) continue;
    out.push_back(g.GetVertexProp(v, "name").ToString());
  }
  return out;
}

Pools MakePools(const gopt::PropertyGraph& g) {
  Pools p;
  const auto person = *g.schema().FindVertexType("Person");
  for (gopt::VertexId v : g.VerticesOfType(person)) p.persons.push_back(v);
  p.countries = Names(g, "Place", "country");
  p.cities = Names(g, "Place", "city");
  p.tags = Names(g, "Tag");
  p.tag_classes = Names(g, "TagClass");
  return p;
}

template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& v) {
  return v[rng.NextInt(v.size())];
}

// One full parameter binding for every $name the workload templates use.
std::map<std::string, std::string> DrawParams(Rng& rng,
                                              const gopt::PropertyGraph& g,
                                              const Pools& pools) {
  std::map<std::string, std::string> p;
  p["personId"] = g.GetVertexProp(Pick(rng, pools.persons), "id").ToString();
  p["firstName"] =
      g.GetVertexProp(Pick(rng, pools.persons), "firstName").ToString();
  const int64_t y1 = rng.NextRange(kFirstYear, kLastYear);
  const int64_t y2 = rng.NextRange(kFirstYear, kLastYear);
  p["minDate"] = Jan1(std::min(y1, y2));
  p["maxDate"] = Jan1(std::max(y1, y2) + 1);
  p["minBirthday"] = Jan1(rng.NextRange(kFirstBirthYear, kLastBirthYear));
  p["country"] = Pick(rng, pools.countries);
  p["city"] = Pick(rng, pools.cities);
  do {
    p["city2"] = Pick(rng, pools.cities);
  } while (p["city2"] == p["city"]);
  p["tagName"] = Pick(rng, pools.tags);
  do {
    p["tagName2"] = Pick(rng, pools.tags);
  } while (p["tagName2"] == p["tagName"]);
  p["tagClass"] = Pick(rng, pools.tag_classes);
  return p;
}

void Shuffle(std::vector<Op>* ops, Rng& rng) {
  for (size_t i = ops->size(); i > 1; --i) {
    std::swap((*ops)[i - 1], (*ops)[rng.NextInt(i)]);
  }
}

// `draws` parameter draws of every template, duplicates (templates without
// parameters) dropped so each op in the list is distinct.
std::vector<Op> Draw(const std::vector<WorkloadQuery>& tmpls, int draws,
                     Rng& rng, const gopt::PropertyGraph& g,
                     const Pools& pools) {
  std::vector<Op> ops;
  std::set<std::string> seen;
  for (int d = 0; d < draws; ++d) {
    for (const auto& t : tmpls) {
      Op op{t.name, gopt::SubstituteParams(t.cypher, DrawParams(rng, g, pools)),
            Language::kCypher};
      if (seen.insert(op.text).second) ops.push_back(std::move(op));
    }
  }
  return ops;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"ic_serve", "bi_dist",
                                                  "adhoc_plan"};
  return kNames;
}

std::vector<Op> MakeOps(const std::string& workload,
                        const gopt::PropertyGraph& g, uint64_t seed) {
  // Each workload draws from its own stream of the seed.
  uint64_t salt = 0;
  for (char c : workload) salt = salt * 131 + static_cast<unsigned char>(c);
  Rng rng(seed ^ (salt * 0x9e3779b97f4a7c15ull));
  const Pools pools = MakePools(g);

  std::vector<Op> ops;
  if (workload == "ic_serve") {
    ops = Draw(gopt::IcQueries(), kIcDraws, rng, g, pools);
  } else if (workload == "bi_dist") {
    ops = Draw(gopt::BiQueries(), kBiDraws, rng, g, pools);
  } else if (workload == "adhoc_plan") {
    for (const auto* set : {&gopt::IcQueries(), &gopt::BiQueries(),
                            &gopt::QrQueries(), &gopt::QtQueries(),
                            &gopt::QcQueries()}) {
      auto drawn = Draw(*set, 1, rng, g, pools);
      ops.insert(ops.end(), drawn.begin(), drawn.end());
    }
    for (const auto* set : {&gopt::QrQueries(), &gopt::QcQueries()}) {
      for (const auto& t : *set) {
        ops.push_back({t.name + "/gremlin",
                       gopt::SubstituteParams(t.gremlin, DrawParams(rng, g, pools)),
                       Language::kGremlin});
      }
    }
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  Shuffle(&ops, rng);
  return ops;
}

}  // namespace perfbench
