// String helpers shared by the scanner, corpus generator, and reports.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace dsspy::support {

/// Split `text` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// Split `text` into non-empty whitespace-delimited tokens.
[[nodiscard]] std::vector<std::string> tokenize(std::string_view text);

/// Trim ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text);

/// True if `text` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
[[nodiscard]] bool ends_with(std::string_view text, std::string_view suffix);

/// Lower-case ASCII copy.
[[nodiscard]] std::string to_lower(std::string_view text);

/// Join `parts` with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// Replace every occurrence of `from` with `to`.
[[nodiscard]] std::string replace_all(std::string_view text,
                                      std::string_view from,
                                      std::string_view to);

/// Count non-overlapping occurrences of `needle` in `haystack`.
[[nodiscard]] std::size_t count_occurrences(std::string_view haystack,
                                            std::string_view needle);

/// Escape `text` for a JSON string literal: `"` and `\` get a backslash,
/// every control byte below 0x20 becomes `\u00XX`; other bytes (UTF-8
/// included) pass through.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Escape `field` for one CSV cell: a field holding `,`, `"` or a newline
/// is wrapped in quotes with each `"` doubled; any other passes unchanged.
[[nodiscard]] std::string csv_escape(std::string_view field);

}  // namespace dsspy::support
