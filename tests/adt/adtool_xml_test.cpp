#include "adt/adtool_xml.hpp"

#include <gtest/gtest.h>

#include <string>

#include "adt/structure.hpp"
#include "core/bdd_bu.hpp"
#include "core/naive.hpp"
#include "gen/random_adt.hpp"
#include "util/error.hpp"

namespace adtp {
namespace {

/// A small ADTool-style export: an OR root, one conjunctive branch, a
/// countermeasure with a counter-counter, and a repeated basic-step label
/// ("phish") shared between two branches.
constexpr const char* kSample = R"(<?xml version="1.0" encoding="UTF-8"?>
<adtree>
  <node refinement="disjunctive">
    <label>break in</label>
    <node refinement="conjunctive">
      <label>insider path</label>
      <node refinement="disjunctive">
        <label>get creds</label>
        <node><label>phish</label>
          <parameter domainId="MinCost1" category="basic">30</parameter>
        </node>
        <node><label>bribe</label>
          <parameter domainId="MinCost1" category="basic">100</parameter>
        </node>
      </node>
      <node>
        <label>use vpn</label>
        <parameter domainId="MinCost1" category="basic">5</parameter>
        <node switchRole="yes">
          <label>mfa</label>
          <parameter domainId="MinCost1" category="basic">8</parameter>
          <node switchRole="yes">
            <label>steal token</label>
            <parameter domainId="MinCost1" category="basic">50</parameter>
          </node>
        </node>
      </node>
    </node>
    <node>
      <label>phish</label>
    </node>
  </node>
</adtree>
)";

TEST(AdtoolXml, ImportsStructure) {
  const AdtoolImport import = import_adtool_xml(kSample);
  const Adt& adt = import.adt;
  EXPECT_EQ(adt.name(adt.root()), "break in");
  EXPECT_EQ(adt.type(adt.root()), GateType::Or);
  EXPECT_EQ(adt.agent(adt.root()), Agent::Attacker);
  // Basic steps: phish (shared!), bribe, use vpn, steal token + mfa (D).
  EXPECT_EQ(adt.num_attacks(), 4u);
  EXPECT_EQ(adt.num_defenses(), 1u);
  // Repeated label -> one shared node -> DAG.
  EXPECT_FALSE(adt.is_tree());
  EXPECT_EQ(adt.parents(adt.at("phish")).size(), 2u);
  // Countermeasure chain: use vpn inhibited by mfa, mfa by steal token.
  const NodeId countered = adt.at("use vpn countered");
  EXPECT_EQ(adt.type(countered), GateType::Inhibit);
  EXPECT_EQ(adt.name(adt.inhibited_child(countered)), "use vpn");
  EXPECT_EQ(adt.name(adt.trigger_child(countered)), "mfa countered");
}

TEST(AdtoolXml, ParametersBecomeAttribution) {
  const AdtoolImport import = import_adtool_xml(kSample);
  EXPECT_EQ(import.attribution.get("phish"), 30);
  EXPECT_EQ(import.attribution.get("bribe"), 100);
  EXPECT_EQ(import.attribution.get("mfa"), 8);
  ASSERT_EQ(import.domain_ids.size(), 1u);
  EXPECT_EQ(import.domain_ids[0], "MinCost1");
}

TEST(AdtoolXml, ImportedModelAnalyzes) {
  const AdtoolImport import = import_adtool_xml(kSample);
  const AugmentedAdt aadt(import.adt, import.attribution,
                          Semiring::min_cost(), Semiring::min_cost());
  const Front front = bdd_bu_front(aadt);
  EXPECT_TRUE(front.same_values(naive_front(aadt), aadt.defender_domain(),
                                aadt.attacker_domain()));
  // Cheapest attack: the bare "phish" branch at 30.
  EXPECT_EQ(front.front_point().def, 0);
  EXPECT_EQ(front.front_point().att, 30);
  // mfa (8) only forces the insider path's attacker to add steal token -
  // but "phish" alone still works, so mfa never helps: front has 1 point.
  EXPECT_EQ(front.size(), 1u);
}

TEST(AdtoolXml, SemanticsMatchesByHand) {
  // With mfa deployed, "use vpn" requires "steal token".
  const AdtoolImport import = import_adtool_xml(kSample);
  const Adt& adt = import.adt;
  BitVec defense(1);
  BitVec attack(adt.num_attacks());
  attack.set(adt.attack_index(adt.at("phish")));
  // phish alone satisfies the root OR regardless of mfa.
  EXPECT_TRUE(evaluate_root(adt, defense, attack));
  defense.set(0);
  EXPECT_TRUE(evaluate_root(adt, defense, attack));
}

TEST(AdtoolXml, MultipleCountermeasuresAreOred) {
  const char* xml = R"(<adtree><node>
      <label>a</label>
      <node switchRole="yes"><label>d1</label></node>
      <node switchRole="yes"><label>d2</label></node>
    </node></adtree>)";
  const AdtoolImport import = import_adtool_xml(xml);
  const Adt& adt = import.adt;
  const NodeId trigger = adt.trigger_child(adt.at("a countered"));
  EXPECT_EQ(adt.type(trigger), GateType::Or);
  EXPECT_EQ(adt.agent(trigger), Agent::Defender);
  EXPECT_EQ(adt.children(trigger).size(), 2u);
}

TEST(AdtoolXml, DefaultRefinementIsDisjunctive) {
  const char* xml = R"(<adtree><node>
      <label>top</label>
      <node><label>x</label></node>
      <node><label>y</label></node>
    </node></adtree>)";
  const AdtoolImport import = import_adtool_xml(xml);
  EXPECT_EQ(import.adt.type(import.adt.root()), GateType::Or);
}

TEST(AdtoolXml, EntitiesAndComments) {
  const char* xml =
      "<adtree><!-- exported -->\n"
      "<node><label>A &amp; B &lt;x&gt;</label></node></adtree>";
  const AdtoolImport import = import_adtool_xml(xml);
  EXPECT_TRUE(import.adt.find("A & B <x>").has_value());
}

TEST(AdtoolXml, SelectsRequestedDomain) {
  const char* xml = R"(<adtree><node>
      <label>a</label>
      <parameter domainId="Cost">7</parameter>
      <parameter domainId="Time">3</parameter>
    </node></adtree>)";
  EXPECT_EQ(import_adtool_xml(xml, "Time").attribution.get("a"), 3);
  EXPECT_EQ(import_adtool_xml(xml, "Cost").attribution.get("a"), 7);
  // Default: the first domain encountered.
  EXPECT_EQ(import_adtool_xml(xml).attribution.get("a"), 7);
}

TEST(AdtoolXml, MalformedInputsRejected) {
  EXPECT_THROW((void)import_adtool_xml("<adtree>"), ParseError);
  EXPECT_THROW((void)import_adtool_xml("<adtree></wrong>"), ParseError);
  EXPECT_THROW((void)import_adtool_xml("<nottree/>"), ModelError);
  EXPECT_THROW((void)import_adtool_xml("<adtree></adtree>"), ModelError);
  EXPECT_THROW((void)import_adtool_xml(
                   "<adtree><node></node></adtree>"),  // no label
               ModelError);
  EXPECT_THROW((void)import_adtool_xml(
                   "<adtree><node refinement=\"weird\"><label>x</label>"
                   "<node><label>y</label></node></node></adtree>"),
               ModelError);
  EXPECT_THROW((void)import_adtool_xml(
                   "<adtree><node><label>x</label>"
                   "<parameter domainId=\"d\">abc</parameter>"
                   "</node></adtree>"),
               ModelError);
  EXPECT_THROW((void)import_adtool_xml("<adtree><node><label>&bogus;"
                                       "</label></node></adtree>"),
               ParseError);
}

/// An ADTool document whose node elements nest \p depth levels deep: a
/// chain of one-child OR gates ending in one basic step.
std::string nested_nodes(int depth) {
  std::string xml = "<adtree>";
  for (int i = 0; i < depth; ++i) {
    xml += "<node refinement=\"disjunctive\"><label>n" + std::to_string(i) +
           "</label>";
  }
  for (int i = 0; i < depth; ++i) xml += "</node>";
  return xml + "</adtree>";
}

TEST(AdtoolXml, DeepNestingIsAParseErrorNotAStackOverflow) {
  // ~1 MB, 20 000 levels: one recursion frame per level would overflow
  // the stack, so nesting is capped.
  const std::string deep = nested_nodes(20000);
  EXPECT_GT(deep.size(), 900'000u);
  EXPECT_THROW((void)import_adtool_xml(deep), ParseError);
  // n nodes nest n + 2 elements deep (<adtree> and the innermost
  // <label> included): 2048 levels is the cap, one more fails the same
  // way.
  EXPECT_EQ(import_adtool_xml(nested_nodes(2046)).adt.size(), 2046u);
  EXPECT_THROW((void)import_adtool_xml(nested_nodes(2047)), ParseError);
}

TEST(AdtoolXml, MissingFileThrows) {
  EXPECT_THROW((void)load_adtool_file("/nonexistent/tree.xml"), Error);
}

// ---- export / round-trip -------------------------------------------------

TEST(AdtoolXmlExport, SampleRoundTripsToFixpoint) {
  const AdtoolImport first = import_adtool_xml(kSample);
  const std::string domain = first.domain_ids.empty()
                                 ? std::string("adtp")
                                 : first.domain_ids.front();
  const std::string xml1 =
      export_adtool_xml(first.adt, first.attribution, domain);

  // import(export(.)) must be the identity from the first import on:
  // re-importing the export and exporting again yields the same document.
  const AdtoolImport second = import_adtool_xml(xml1);
  const std::string xml2 =
      export_adtool_xml(second.adt, second.attribution, domain);
  EXPECT_EQ(xml1, xml2);

  // Structure survives: the shared "phish" step stays one DAG node, and
  // the countermeasure chain re-imports as the same INH nesting.
  EXPECT_EQ(second.adt.size(), first.adt.size());
  EXPECT_EQ(second.adt.parents(second.adt.at("phish")).size(), 2u);
  EXPECT_EQ(second.attribution.get("phish"), 30);
  EXPECT_EQ(second.attribution.get("mfa"), 8);

  // Semantics survive: identical fronts.
  const AugmentedAdt a(first.adt, first.attribution, Semiring::min_cost(),
                       Semiring::min_cost());
  const AugmentedAdt b(second.adt, second.attribution, Semiring::min_cost(),
                       Semiring::min_cost());
  EXPECT_TRUE(bdd_bu_front(a).same_values(bdd_bu_front(b),
                                          a.defender_domain(),
                                          a.attacker_domain()));
}

TEST(AdtoolXmlExport, RandomTreesRoundTrip) {
  // Property: for generated attacker-rooted trees X, with I = import and
  // E = export, E(I(E(X))) == E(X) (textual fixpoint) and the front of
  // I(E(X)) equals X's front. Trees only: shared gates unfold on export.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomAdtOptions options;
    options.target_nodes = 14 + seed % 18;
    options.share_probability = 0.0;
    options.max_defenses = 6;
    options.root_agent = Agent::Attacker;
    const AugmentedAdt aadt = generate_random_aadt(
        options, seed, Semiring::min_cost(), Semiring::min_cost());
    ASSERT_TRUE(aadt.adt().is_tree());

    const std::string xml1 =
        export_adtool_xml(aadt.adt(), aadt.attribution(), "mincost");
    const AdtoolImport imported = import_adtool_xml(xml1);
    const std::string xml2 =
        export_adtool_xml(imported.adt, imported.attribution, "mincost");
    EXPECT_EQ(xml1, xml2) << "seed " << seed;

    const AugmentedAdt reimported(imported.adt, imported.attribution,
                                  Semiring::min_cost(), Semiring::min_cost());
    const Front original = bdd_bu_front(aadt);
    const Front round_tripped = bdd_bu_front(reimported);
    EXPECT_TRUE(round_tripped.approx_same_values(original))
        << "seed " << seed << ": " << round_tripped.to_string() << " vs "
        << original.to_string();
  }
}

TEST(AdtoolXmlExport, SharedBasicStepsKeepSharingAcrossRoundTrip) {
  // DAGs whose only sharing is basic steps are inside ADTool's
  // representable class (repeated labels); the round trip keeps the DAG.
  Adt adt;
  const NodeId phish = adt.add_basic("phish", Agent::Attacker);
  const NodeId creds = adt.add_gate("creds", GateType::Or, Agent::Attacker,
                                    {phish, adt.add_basic("bribe",
                                                          Agent::Attacker)});
  const NodeId session =
      adt.add_gate("session", GateType::Or, Agent::Attacker, {phish});
  adt.set_root(adt.add_gate("root", GateType::And, Agent::Attacker,
                            {creds, session}));
  adt.freeze();
  Attribution beta;
  beta.set("phish", 30);
  beta.set("bribe", 100);

  const std::string xml = export_adtool_xml(adt, beta);
  const AdtoolImport imported = import_adtool_xml(xml);
  EXPECT_FALSE(imported.adt.is_tree());
  EXPECT_EQ(imported.adt.parents(imported.adt.at("phish")).size(), 2u);
  EXPECT_EQ(export_adtool_xml(imported.adt, imported.attribution), xml);
}

TEST(AdtoolXmlExport, NestedInhibitBaseIsWrapped) {
  // INH(INH(a | d) | a2) is not directly representable (a node cannot
  // carry two counter layers); the exporter wraps the inner INH in a
  // singleton disjunctive refinement, which is semantically neutral.
  Adt adt;
  const NodeId a = adt.add_basic("a", Agent::Attacker);
  const NodeId d = adt.add_basic("d", Agent::Defender);
  const NodeId inner = adt.add_inhibit("inner", a, d);
  const NodeId d2 = adt.add_basic("d2", Agent::Defender);
  adt.set_root(adt.add_inhibit("outer", inner, d2));
  adt.freeze();
  Attribution beta;
  beta.set("a", 5);
  beta.set("d", 4);
  beta.set("d2", 8);

  const std::string xml1 = export_adtool_xml(adt, beta);
  const AdtoolImport imported = import_adtool_xml(xml1);
  EXPECT_EQ(export_adtool_xml(imported.adt, imported.attribution), xml1);

  const AugmentedAdt original(adt, beta, Semiring::min_cost(),
                              Semiring::min_cost());
  const AugmentedAdt round_tripped(imported.adt, imported.attribution,
                                   Semiring::min_cost(),
                                   Semiring::min_cost());
  EXPECT_TRUE(bdd_bu_front(round_tripped)
                  .same_values(bdd_bu_front(original),
                               original.defender_domain(),
                               original.attacker_domain()));
}

TEST(AdtoolXmlExport, DefenderRootRejected) {
  Adt adt;
  adt.set_root(adt.add_basic("d", Agent::Defender));
  adt.freeze();
  EXPECT_THROW((void)export_adtool_xml(adt), ModelError);
}

}  // namespace
}  // namespace adtp
