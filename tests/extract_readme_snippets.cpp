// Writes every ```cpp block of README.md into one translation unit, so
// the docs ctest can compile the snippets against the current API.
//
//   extract_readme_snippets <README.md> <out.cpp>
//
// Each block becomes the body of its own function. Its #include lines
// are hoisted to the top of the file (each once, in order of first
// appearance), and a #line directive maps the body back to the README,
// so a stale snippet's compile error names the README line. A prelude
// declares the variables the prose assumes without defining them
// (`user`, `training_trace`, `clean`); the target only compiles, it is
// never linked. Exit 0 on success, 1 when the README holds no cpp
// block, 2 on a usage or I/O error.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Block {
  int first_line = 0;  ///< README line of the block's first code line
  std::vector<std::string> lines;
};

bool is_include(const std::string& line) {
  const std::size_t hash = line.find_first_not_of(" \t");
  if (hash == std::string::npos || line[hash] != '#') return false;
  const std::size_t word = line.find_first_not_of(" \t", hash + 1);
  return word != std::string::npos && line.compare(word, 7, "include") == 0;
}

/// The block body with its #include lines blanked, so line numbers
/// still match the README.
std::string body(const Block& block, std::vector<std::string>& includes) {
  std::string out;
  for (const std::string& line : block.lines) {
    if (is_include(line)) {
      bool seen = false;
      for (const std::string& inc : includes) seen = seen || inc == line;
      if (!seen) includes.push_back(line);
      out += '\n';
    } else {
      out += line + '\n';
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <README.md> <out.cpp>\n", argv[0]);
    return 2;
  }
  const std::string readme_path = argv[1];
  std::ifstream readme(readme_path);
  if (!readme) {
    std::fprintf(stderr, "cannot read %s\n", argv[1]);
    return 2;
  }

  std::vector<Block> blocks;
  bool in_block = false;
  int line_no = 0;
  for (std::string line; std::getline(readme, line);) {
    ++line_no;
    if (!in_block) {
      if (line == "```cpp") {
        in_block = true;
        blocks.push_back({line_no + 1, {}});
      }
    } else if (line.rfind("```", 0) == 0) {
      in_block = false;
    } else {
      blocks.back().lines.push_back(line);
    }
  }
  if (blocks.empty()) {
    std::fprintf(stderr, "%s holds no ```cpp block\n", argv[1]);
    return 1;
  }

  std::vector<std::string> includes;
  std::ostringstream functions;
  for (const Block& block : blocks) {
    functions << "void readme_line_" << block.first_line << "() {\n"
              << "#line " << block.first_line << " \"" << readme_path
              << "\"\n"
              << body(block, includes) << "}\n\n";
  }

  std::ofstream out(argv[2]);
  out << "// Generated from " << readme_path
      << " by extract_readme_snippets; do not edit.\n";
  for (const std::string& inc : includes) out << inc << '\n';
  // The prelude: what the prose assumes, declared in a namespace the
  // snippet functions import, so a block that defines the same name
  // hides it without shadowing a declaration of its own scope.
  out << "#include \"synth/profiles.hpp\"\n"
         "#include \"trace/trace.hpp\"\n\n"
         "namespace readme_prelude {\n"
         "extern const netmaster::synth::UserProfile user;\n"
         "extern const netmaster::UserTrace training_trace;\n"
         "extern const netmaster::UserTrace clean;\n"
         "}  // namespace readme_prelude\n\n"
         "namespace readme_snippets {\n"
         "using namespace netmaster;\n"
         "using namespace readme_prelude;\n\n"
      << functions.str() << "}  // namespace readme_snippets\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", argv[2]);
    return 2;
  }
  return 0;
}
