#include "xml/xml_path.h"

#include <cctype>
#include <charconv>

#include "xml/xml_parser.h"

namespace maxson::xml {

namespace {

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '-' || c == '.' || c == ':';
}

}  // namespace

Result<XmlPath> XmlPath::Parse(std::string_view text) {
  if (text.empty() || text[0] != '/') {
    return Status::ParseError("XPath must start with '/': " +
                              std::string(text));
  }
  std::vector<XmlPathStep> steps;
  size_t pos = 0;
  while (pos < text.size()) {
    if (text[pos] != '/') {
      return Status::ParseError("expected '/' in XPath: " + std::string(text));
    }
    ++pos;
    if (pos < text.size() && text[pos] == '@') {
      ++pos;
      const size_t start = pos;
      while (pos < text.size() && IsNameChar(text[pos])) ++pos;
      if (pos == start || pos != text.size()) {
        return Status::ParseError("attribute step must be last: " +
                                  std::string(text));
      }
      XmlPathStep step;
      step.kind = XmlPathStep::Kind::kAttribute;
      step.name = std::string(text.substr(start, pos - start));
      steps.push_back(std::move(step));
      break;
    }
    const size_t start = pos;
    while (pos < text.size() && IsNameChar(text[pos])) ++pos;
    if (pos == start) {
      return Status::ParseError("empty element name in XPath: " +
                                std::string(text));
    }
    XmlPathStep step;
    step.name = std::string(text.substr(start, pos - start));
    if (pos < text.size() && text[pos] == '[') {
      ++pos;
      const size_t digits = pos;
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
      int64_t one_based = 0;
      if (pos == digits || pos >= text.size() || text[pos] != ']' ||
          std::from_chars(text.data() + digits, text.data() + pos, one_based)
                  .ec != std::errc()) {
        return Status::ParseError("bad positional predicate in XPath");
      }
      if (one_based < 1) {
        return Status::ParseError("XPath positions are 1-based");
      }
      step.index = one_based - 1;
      ++pos;
    }
    steps.push_back(std::move(step));
  }
  if (steps.empty()) return Status::ParseError("empty XPath");
  return XmlPath(std::move(steps));
}

std::string XmlPath::ToString() const {
  std::string out;
  for (const XmlPathStep& step : steps_) {
    out.push_back('/');
    if (step.kind == XmlPathStep::Kind::kAttribute) {
      out.push_back('@');
      out.append(step.name);
    } else {
      out.append(step.name);
      if (step.index > 0) {
        out.push_back('[');
        out.append(std::to_string(step.index + 1));
        out.push_back(']');
      }
    }
  }
  return out;
}

Result<std::string> XmlPath::Evaluate(const XmlElement& root) const {
  if (steps_.empty()) return Status::NotFound("empty XPath");
  // First step names the document root.
  if (steps_[0].kind != XmlPathStep::Kind::kElement ||
      steps_[0].name != root.tag() || steps_[0].index != 0) {
    return Status::NotFound("root element mismatch for " + ToString());
  }
  const XmlElement* current = &root;
  for (size_t i = 1; i < steps_.size(); ++i) {
    const XmlPathStep& step = steps_[i];
    if (step.kind == XmlPathStep::Kind::kAttribute) {
      const std::string* value = current->FindAttribute(step.name);
      if (value == nullptr) {
        return Status::NotFound("attribute @" + step.name + " not present");
      }
      return *value;
    }
    const XmlElement* child =
        current->FindChild(step.name, static_cast<size_t>(step.index));
    if (child == nullptr) {
      return Status::NotFound("element " + step.name + " not present in " +
                              ToString());
    }
    current = child;
  }
  return current->text();
}

Result<std::string> GetXmlObject(std::string_view xml_text,
                                 const XmlPath& path) {
  MAXSON_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> root,
                          ParseXml(xml_text));
  return path.Evaluate(*root);
}

}  // namespace maxson::xml
