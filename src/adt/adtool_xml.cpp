#include "adt/adtool_xml.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "util/json.hpp"

namespace adtp {

namespace {

/// A minimal XML element tree - just enough for ADTool exports: elements,
/// attributes, text content, comments, declarations. No namespaces, no
/// CDATA, no DTDs.
struct XmlElement {
  std::string name;
  std::map<std::string, std::string> attributes;
  std::string text;  // concatenated character data directly inside
  std::vector<std::unique_ptr<XmlElement>> children;

  [[nodiscard]] std::string attribute(const std::string& key) const {
    auto it = attributes.find(key);
    return it == attributes.end() ? std::string() : it->second;
  }
};

class XmlParser {
 public:
  explicit XmlParser(const std::string& input) : in_(input) {}

  std::unique_ptr<XmlElement> parse_document() {
    skip_misc();
    auto root = parse_element();
    skip_misc();
    if (pos_ != in_.size()) {
      fail("trailing content after the document element");
    }
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < in_.size(); ++i) {
      if (in_[i] == '\n') ++line;
    }
    throw ParseError(line, "adtool xml: " + what);
  }

  [[nodiscard]] bool starts_with(const char* s) const {
    return in_.compare(pos_, std::strlen(s), s) == 0;
  }

  void skip_ws() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_])) != 0) {
      ++pos_;
    }
  }

  /// Skips whitespace, comments and processing instructions/declarations.
  void skip_misc() {
    while (true) {
      skip_ws();
      if (starts_with("<!--")) {
        const auto end = in_.find("-->", pos_ + 4);
        if (end == std::string::npos) fail("unterminated comment");
        pos_ = end + 3;
      } else if (starts_with("<?")) {
        const auto end = in_.find("?>", pos_ + 2);
        if (end == std::string::npos) fail("unterminated declaration");
        pos_ = end + 2;
      } else {
        return;
      }
    }
  }

  std::string parse_name() {
    const std::size_t start = pos_;
    while (pos_ < in_.size() &&
           (std::isalnum(static_cast<unsigned char>(in_[pos_])) != 0 ||
            in_[pos_] == '_' || in_[pos_] == '-' || in_[pos_] == ':' ||
            in_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a name");
    return in_.substr(start, pos_ - start);
  }

  std::string decode_entities(const std::string& raw) {
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out += raw[i];
        continue;
      }
      const auto semi = raw.find(';', i);
      if (semi == std::string::npos) fail("unterminated entity");
      const std::string entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "amp") {
        out += '&';
      } else if (entity == "lt") {
        out += '<';
      } else if (entity == "gt") {
        out += '>';
      } else if (entity == "quot") {
        out += '"';
      } else if (entity == "apos") {
        out += '\'';
      } else {
        fail("unknown entity '&" + entity + ";'");
      }
      i = semi;
    }
    return out;
  }

  std::unique_ptr<XmlElement> parse_element() {
    if (pos_ >= in_.size() || in_[pos_] != '<') fail("expected '<'");
    ++pos_;
    auto element = std::make_unique<XmlElement>();
    element->name = parse_name();

    // Attributes.
    while (true) {
      skip_ws();
      if (pos_ >= in_.size()) fail("unterminated start tag");
      if (in_[pos_] == '>') {
        ++pos_;
        break;
      }
      if (starts_with("/>")) {
        pos_ += 2;
        return element;
      }
      const std::string key = parse_name();
      skip_ws();
      if (pos_ >= in_.size() || in_[pos_] != '=') fail("expected '='");
      ++pos_;
      skip_ws();
      if (pos_ >= in_.size() || (in_[pos_] != '"' && in_[pos_] != '\'')) {
        fail("expected a quoted attribute value");
      }
      const char quote = in_[pos_++];
      const auto end = in_.find(quote, pos_);
      if (end == std::string::npos) fail("unterminated attribute value");
      element->attributes[key] = decode_entities(in_.substr(pos_, end - pos_));
      pos_ = end + 1;
    }

    // Content.
    while (true) {
      if (pos_ >= in_.size()) fail("unterminated element <" + element->name +
                                   ">");
      if (starts_with("<!--")) {
        const auto end = in_.find("-->", pos_ + 4);
        if (end == std::string::npos) fail("unterminated comment");
        pos_ = end + 3;
      } else if (starts_with("</")) {
        pos_ += 2;
        const std::string name = parse_name();
        if (name != element->name) {
          fail("mismatched close tag </" + name + "> for <" + element->name +
               ">");
        }
        skip_ws();
        if (pos_ >= in_.size() || in_[pos_] != '>') fail("expected '>'");
        ++pos_;
        return element;
      } else if (pos_ < in_.size() && in_[pos_] == '<') {
        if (++depth_ >= kMaxDepth) {
          fail("elements nest deeper than " + std::to_string(kMaxDepth) +
               " levels");
        }
        element->children.push_back(parse_element());
        --depth_;
      } else {
        const auto end = in_.find('<', pos_);
        if (end == std::string::npos) {
          fail("unterminated element <" + element->name + ">");
        }
        element->text += decode_entities(in_.substr(pos_, end - pos_));
        pos_ = end;
      }
    }
  }

  /// Elements nested deeper than this fail with ParseError instead of
  /// overflowing the stack. Parse, conversion and teardown each recurse
  /// once per level: ~1.7 KB per level in an ASan Debug build, so the
  /// cap stays within a quarter of a default 8 MB thread stack while
  /// 2000-level models still import.
  static constexpr int kMaxDepth = 2048;

  const std::string& in_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< open ancestors of the element being parsed
};

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return {};
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

/// Converts the ADTool element tree into an Adt.
class Converter {
 public:
  Converter(AdtoolImport& out, const std::string& domain_id)
      : out_(out), requested_domain_(domain_id) {}

  NodeId convert(const XmlElement& element, Agent role) {
    if (element.name != "node") {
      throw ModelError("adtool xml: expected a <node>, found <" +
                       element.name + ">");
    }

    std::string label;
    std::vector<const XmlElement*> own;
    std::vector<const XmlElement*> counters;
    for (const auto& child : element.children) {
      if (child->name == "label") {
        label = trim(child->text);
      } else if (child->name == "node") {
        const std::string switch_role = child->attribute("switchRole");
        if (switch_role == "yes" || switch_role == "true") {
          counters.push_back(child.get());
        } else {
          own.push_back(child.get());
        }
      } else if (child->name == "parameter") {
        record_parameter(*child, label, element);
      }
      // Other elements (comments converted away, <comment> etc.): ignored.
    }
    if (label.empty()) {
      throw ModelError("adtool xml: <node> without a <label>");
    }

    NodeId base;
    if (own.empty()) {
      base = basic_step(label, role);
      // Parameters may appear after the label inside this element; they
      // were recorded with the element's label above.
    } else {
      const std::string refinement = element.attribute("refinement");
      GateType type;
      if (refinement == "conjunctive") {
        type = GateType::And;
      } else if (refinement == "disjunctive" || refinement.empty()) {
        type = GateType::Or;
      } else {
        throw ModelError("adtool xml: unknown refinement '" + refinement +
                         "'");
      }
      std::vector<NodeId> children;
      children.reserve(own.size());
      for (const XmlElement* child : own) {
        children.push_back(convert(*child, role));
      }
      base = out_.adt.add_gate(unique_name(label), type, role,
                               std::move(children));
    }

    if (counters.empty()) return base;

    // Countermeasures belong to the opposite agent; several of them are
    // OR-ed (any one blocks).
    NodeId trigger;
    if (counters.size() == 1) {
      trigger = convert(*counters[0], opponent(role));
    } else {
      std::vector<NodeId> converted;
      converted.reserve(counters.size());
      for (const XmlElement* counter : counters) {
        converted.push_back(convert(*counter, opponent(role)));
      }
      trigger = out_.adt.add_gate(unique_name(label + " counters"),
                                  GateType::Or, opponent(role),
                                  std::move(converted));
    }
    return out_.adt.add_inhibit(unique_name(label + " countered"), base,
                                trigger);
  }

 private:
  /// ADTool's repeated-labels convention: equal basic-step labels (per
  /// role) are the *same* action - one shared node.
  NodeId basic_step(const std::string& label, Agent role) {
    const auto key = std::make_pair(label, role);
    if (auto it = basic_by_label_.find(key); it != basic_by_label_.end()) {
      return it->second;
    }
    const NodeId id = out_.adt.add_basic(label, role);
    basic_by_label_.emplace(key, id);
    return id;
  }

  std::string unique_name(const std::string& base) {
    // Labels may repeat freely in ADTool (both between gates and against
    // basic steps); probe until an unused node name is found.
    std::size_t& n = name_uses_[base];
    while (true) {
      ++n;
      std::string candidate =
          n == 1 ? base : base + "@" + std::to_string(n);
      if (!out_.adt.find(candidate)) return candidate;
    }
  }

  void record_parameter(const XmlElement& parameter, const std::string& label,
                        const XmlElement& owner) {
    (void)owner;
    const std::string domain = parameter.attribute("domainId");
    if (!domain.empty() &&
        std::find(out_.domain_ids.begin(), out_.domain_ids.end(), domain) ==
            out_.domain_ids.end()) {
      out_.domain_ids.push_back(domain);
    }
    const std::string wanted = requested_domain_.empty()
                                   ? (out_.domain_ids.empty()
                                          ? std::string()
                                          : out_.domain_ids.front())
                                   : requested_domain_;
    if (!wanted.empty() && domain != wanted) return;
    if (label.empty()) {
      throw ModelError("adtool xml: <parameter> before the node's <label>");
    }
    try {
      out_.attribution.set(label, std::stod(trim(parameter.text)));
    } catch (const std::exception&) {
      throw ModelError("adtool xml: non-numeric parameter value '" +
                       trim(parameter.text) + "' on '" + label + "'");
    }
  }

  AdtoolImport& out_;
  std::string requested_domain_;
  std::map<std::pair<std::string, Agent>, NodeId> basic_by_label_;
  std::map<std::string, std::size_t> name_uses_;
};

}  // namespace

AdtoolImport import_adtool_xml(const std::string& xml,
                               const std::string& domain_id) {
  XmlParser parser(xml);
  const auto document = parser.parse_document();
  if (document->name != "adtree") {
    throw ModelError("adtool xml: document element is <" + document->name +
                     ">, expected <adtree>");
  }
  const XmlElement* root_node = nullptr;
  for (const auto& child : document->children) {
    if (child->name == "node") {
      if (root_node != nullptr) {
        throw ModelError("adtool xml: multiple root <node> elements");
      }
      root_node = child.get();
    }
  }
  if (root_node == nullptr) {
    throw ModelError("adtool xml: <adtree> has no <node>");
  }

  AdtoolImport result;
  Converter converter(result, domain_id);
  const NodeId root = converter.convert(*root_node, Agent::Attacker);
  result.adt.set_root(root);
  result.adt.freeze();
  return result;
}

AdtoolImport load_adtool_file(const std::string& path,
                              const std::string& domain_id) {
  std::ifstream in(path);
  if (!in) {
    throw Error("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return import_adtool_xml(buffer.str(), domain_id);
}

namespace {

std::string xml_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += ch;
    }
  }
  return out;
}

/// The recursive ADTool serializer; see export_adtool_xml() in the
/// header for the mapping.
class Exporter {
 public:
  Exporter(const Adt& adt, const Attribution& attribution,
           const std::string& domain_id)
      : adt_(adt), attribution_(attribution), domain_id_(domain_id) {}

  std::string run() {
    out_ = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<adtree>\n";
    render(adt_.root(), false, 1);
    out_ += "</adtree>\n";
    return std::move(out_);
  }

 private:
  void indent(int depth) { out_.append(static_cast<std::size_t>(depth) * 2, ' '); }

  /// Renders node \p v as one <node> element. An INH renders as its
  /// *base* element with the trigger appended as a countermeasure; a
  /// nested-INH base gets a singleton disjunctive wrapper so the result
  /// stays inside ADTool's representable class.
  void render(NodeId v, bool switch_role, int depth) {
    if (adt_.type(v) == GateType::Inhibit) {
      const NodeId base = adt_.inhibited_child(v);
      const NodeId trigger = adt_.trigger_child(v);
      if (adt_.type(base) == GateType::Inhibit) {
        indent(depth);
        out_ += "<node refinement=\"disjunctive\"";
        if (switch_role) out_ += " switchRole=\"yes\"";
        out_ += ">\n";
        emit_label(adt_.name(v), depth + 1);
        render(base, false, depth + 1);
        render(trigger, true, depth + 1);
        indent(depth);
        out_ += "</node>\n";
      } else {
        render_plain(base, switch_role, trigger, depth);
      }
      return;
    }
    render_plain(v, switch_role, kNoNode, depth);
  }

  /// Renders a non-INH node, optionally with \p counter appended as a
  /// switchRole child (the trigger of the INH wrapping it).
  void render_plain(NodeId v, bool switch_role, NodeId counter, int depth) {
    indent(depth);
    out_ += "<node";
    if (adt_.type(v) == GateType::And) {
      out_ += " refinement=\"conjunctive\"";
    } else if (adt_.type(v) == GateType::Or) {
      out_ += " refinement=\"disjunctive\"";
    }
    if (switch_role) out_ += " switchRole=\"yes\"";
    out_ += ">\n";
    emit_label(adt_.name(v), depth + 1);
    if (adt_.type(v) == GateType::BasicStep &&
        attribution_.has(adt_.name(v))) {
      indent(depth + 1);
      out_ += "<parameter domainId=\"" + xml_escape(domain_id_) +
              "\" category=\"basic\">" +
              format_double_exact(attribution_.get(adt_.name(v))) +
              "</parameter>\n";
    }
    for (NodeId c : adt_.children(v)) render(c, false, depth + 1);
    if (counter != kNoNode) render(counter, true, depth + 1);
    indent(depth);
    out_ += "</node>\n";
  }

  void emit_label(const std::string& name, int depth) {
    indent(depth);
    out_ += "<label>" + xml_escape(name) + "</label>\n";
  }

  const Adt& adt_;
  const Attribution& attribution_;
  const std::string& domain_id_;
  std::string out_;
};

}  // namespace

std::string export_adtool_xml(const Adt& adt, const Attribution& attribution,
                              const std::string& domain_id) {
  adt.require_frozen();
  if (adt.agent(adt.root()) != Agent::Attacker) {
    throw ModelError(
        "adtool xml: export requires an attacker root (ADTool's proponent); "
        "defender-rooted models are not representable");
  }
  return Exporter(adt, attribution, domain_id).run();
}

void save_adtool_file(const Adt& adt, const Attribution& attribution,
                      const std::string& path, const std::string& domain_id) {
  std::ofstream out(path);
  if (!out) {
    throw Error("cannot open '" + path + "' for writing");
  }
  out << export_adtool_xml(adt, attribution, domain_id);
  if (!out.good()) {
    throw Error("failed writing '" + path + "'");
  }
}

}  // namespace adtp
