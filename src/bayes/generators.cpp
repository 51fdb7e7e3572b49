#include "bayes/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace nscc::bayes {

namespace {

/// Marsaglia-Tsang gamma sampler (shape alpha, scale 1).
double sample_gamma(double alpha, util::Xoshiro256& rng) {
  if (alpha < 1.0) {
    // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
    const double u = rng.uniform01();
    return sample_gamma(alpha + 1.0, rng) * std::pow(u, 1.0 / alpha);
  }
  const double d = alpha - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = rng.normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.uniform01();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

/// One CPT row ~ Dirichlet(alpha,...,alpha); small alpha = skewed rows.
std::vector<double> dirichlet_row(int k, double alpha, util::Xoshiro256& rng) {
  std::vector<double> row(static_cast<std::size_t>(k));
  double sum = 0.0;
  for (double& p : row) {
    p = sample_gamma(alpha, rng);
    sum += p;
  }
  for (double& p : row) p /= sum;
  return row;
}

void fill_random_cpts(BeliefNetwork& net, double skew, util::Xoshiro256& rng) {
  const double alpha = std::max(0.05, 2.0 * (1.0 - skew));
  for (NodeId id = 0; id < net.size(); ++id) {
    const Node& n = net.node(id);
    std::vector<double> cpt;
    cpt.reserve(net.cpt_rows(id) * static_cast<std::size_t>(n.cardinality));
    for (std::size_t row = 0; row < net.cpt_rows(id); ++row) {
      const auto r = dirichlet_row(n.cardinality, alpha, rng);
      cpt.insert(cpt.end(), r.begin(), r.end());
    }
    net.set_cpt(id, std::move(cpt));
  }
}

}  // namespace

BeliefNetwork make_random_network(const RandomNetworkConfig& config) {
  util::Xoshiro256 rng(config.seed);
  BeliefNetwork net;
  for (int i = 0; i < config.nodes; ++i) {
    net.add_node("n" + std::to_string(i), config.cardinality);
  }

  // Random topological permutation, then sample the surviving edges of the
  // "complete DAG minus random deletions" uniformly: shuffle all ordered
  // pairs and keep the first `edges` that respect the parent cap.
  std::vector<int> position(static_cast<std::size_t>(config.nodes));
  std::iota(position.begin(), position.end(), 0);
  for (std::size_t i = position.size(); i > 1; --i) {
    std::swap(position[i - 1], position[rng.below(i)]);
  }

  struct Edge {
    NodeId from;
    NodeId to;
  };
  std::vector<Edge> candidates;
  for (int u = 0; u < config.nodes; ++u) {
    for (int v = 0; v < config.nodes; ++v) {
      if (position[static_cast<std::size_t>(u)] <
          position[static_cast<std::size_t>(v)]) {
        candidates.push_back({u, v});
      }
    }
  }
  for (std::size_t i = candidates.size(); i > 1; --i) {
    std::swap(candidates[i - 1], candidates[rng.below(i)]);
  }

  std::vector<std::vector<NodeId>> parents(
      static_cast<std::size_t>(config.nodes));
  int placed = 0;
  for (const Edge& e : candidates) {
    if (placed >= config.edges) break;
    auto& plist = parents[static_cast<std::size_t>(e.to)];
    if (static_cast<int>(plist.size()) >= config.max_parents) continue;
    plist.push_back(e.from);
    ++placed;
  }
  for (int v = 0; v < config.nodes; ++v) {
    net.set_parents(v, parents[static_cast<std::size_t>(v)]);
  }

  fill_random_cpts(net, config.skew, rng);
  net.validate();
  return net;
}

BeliefNetwork make_network_a() {
  RandomNetworkConfig c;
  c.nodes = 54;
  c.edges = 119;  // 2.2 edges per node.
  c.cardinality = 2;
  c.skew = 0.55;
  c.seed = 0xA;
  return make_random_network(c);
}

BeliefNetwork make_network_aa() {
  RandomNetworkConfig c;
  c.nodes = 54;
  c.edges = 130;  // 2.4 edges per node.
  c.cardinality = 2;
  c.skew = 0.55;
  c.seed = 0xAA;
  return make_random_network(c);
}

BeliefNetwork make_network_c() {
  RandomNetworkConfig c;
  c.nodes = 54;
  c.edges = 108;  // 2.0 edges per node.
  c.cardinality = 2;
  c.skew = 0.55;
  c.seed = 0xC;
  return make_random_network(c);
}

BeliefNetwork make_hailfinder_like() {
  // Two loosely coupled diagnostic sub-models (real Hailfinder is modular),
  // 56 nodes, 4 values each, ~1.2 edges/node, few cross edges so the
  // 2-way edge-cut lands near Table 2's value of 4.
  util::Xoshiro256 rng(0x4a11);
  BeliefNetwork net;
  constexpr int kNodes = 56;
  constexpr int kHalf = kNodes / 2;
  for (int i = 0; i < kNodes; ++i) {
    net.add_node("h" + std::to_string(i), 4);
  }

  std::vector<std::vector<NodeId>> parents(kNodes);
  auto add_cluster_edges = [&](int base, int count) {
    int placed = 0;
    while (placed < count) {
      const int u = base + static_cast<int>(rng.below(kHalf));
      const int v = base + static_cast<int>(rng.below(kHalf));
      if (u >= v) continue;  // Node index order is the topological order.
      auto& plist = parents[static_cast<std::size_t>(v)];
      if (static_cast<int>(plist.size()) >= 3) continue;
      if (std::find(plist.begin(), plist.end(), u) != plist.end()) continue;
      plist.push_back(u);
      ++placed;
    }
  };
  add_cluster_edges(0, 32);
  add_cluster_edges(kHalf, 32);
  // Three cross edges from the first module into the second.
  for (const auto& [u, v] : {std::pair{5, kHalf + 3}, std::pair{12, kHalf + 9},
                             std::pair{20, kHalf + 15}}) {
    parents[static_cast<std::size_t>(v)].push_back(u);
  }
  for (int v = 0; v < kNodes; ++v) {
    net.set_parents(v, parents[static_cast<std::size_t>(v)]);
  }

  // Diagnostic-model CPTs: most rows concentrate on outcome 0 ("normal"),
  // so one value dominates marginally — the property that makes
  // default-value speculation pay off and lets adaptive sampling stop
  // early (Table 2's much smaller Hailfinder inference time).
  for (NodeId id = 0; id < net.size(); ++id) {
    const Node& n = net.node(id);
    std::vector<double> cpt;
    for (std::size_t row = 0; row < net.cpt_rows(id); ++row) {
      std::vector<double> r(static_cast<std::size_t>(n.cardinality));
      if (rng.bernoulli(0.93)) {
        // "Normal" row: outcome 0 dominates strongly.
        const double p0 = rng.uniform(0.95, 0.995);
        r[0] = p0;
        double rest = 0.0;
        for (int v = 1; v < n.cardinality; ++v) {
          r[static_cast<std::size_t>(v)] = rng.uniform01();
          rest += r[static_cast<std::size_t>(v)];
        }
        for (int v = 1; v < n.cardinality; ++v) {
          r[static_cast<std::size_t>(v)] *= (1.0 - p0) / rest;
        }
      } else {
        // "Fault" row: skewed but arbitrary dominant value.
        r = dirichlet_row(n.cardinality, 0.3, rng);
      }
      cpt.insert(cpt.end(), r.begin(), r.end());
    }
    net.set_cpt(id, std::move(cpt));
  }
  net.validate();
  return net;
}

std::vector<NamedNetwork> table2_networks() {
  std::vector<NamedNetwork> nets;
  nets.push_back({"A", make_network_a()});
  nets.push_back({"AA", make_network_aa()});
  nets.push_back({"C", make_network_c()});
  nets.push_back({"Hailfinder", make_hailfinder_like()});
  return nets;
}

}  // namespace nscc::bayes
