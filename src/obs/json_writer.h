#ifndef DPLEARN_OBS_JSON_WRITER_H_
#define DPLEARN_OBS_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dplearn {
namespace obs {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included). Control characters become \uXXXX escapes.
std::string JsonEscape(std::string_view s);

/// A minimal streaming JSON builder: handles commas, nesting, and escaping
/// so callers only state structure. No external dependency — the repo bakes
/// its own serialization (see DESIGN.md §6). Misuse (e.g. a value with no
/// pending key inside an object) is a programming error and is not
/// diagnosed beyond producing invalid JSON; tests cover the shapes we emit.
///
///   JsonWriter w;
///   w.BeginObject().Key("id").Value("e5").Key("pass").Value(true).EndObject();
///   w.str()  =>  {"id":"e5","pass":true}
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view value);
  JsonWriter& Value(const char* value);
  JsonWriter& Value(double value);  // non-finite values serialize as null
  JsonWriter& Value(std::uint64_t value);
  JsonWriter& Value(std::int64_t value);
  JsonWriter& Value(bool value);

  /// Splices pre-serialized JSON in value position (for embedding documents
  /// produced by other exporters). The caller guarantees validity.
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const { return out_; }

 private:
  void BeforeValue();

  std::string out_;
  /// One entry per open container: true until the first element is written.
  std::vector<bool> first_in_container_;
  bool pending_key_ = false;
};

}  // namespace obs
}  // namespace dplearn

#endif  // DPLEARN_OBS_JSON_WRITER_H_
