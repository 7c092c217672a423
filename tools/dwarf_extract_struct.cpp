// dwarf-extract-struct — the paper's §3.2 tool.
//
// Walks the DWARF debug info of a kernel-module binary, finds the
// requested structure and fields, and emits a standalone padded-union
// header (Listing 1 style) on stdout or to a file.
//
// Usage:
//   dwarf-extract-struct <module.ko> <struct> <field> [<field>...] [-o out.h]
//   dwarf-extract-struct --ship-demo <version> <out.ko>
//
// The second form writes the simulated HFI1 module binary for one of the
// modeled driver releases (those hfi::layout_spec() lists) so the first
// form has something real to chew on:
//
//   dwarf-extract-struct --ship-demo 10.9-5 hfi1.ko
//   dwarf-extract-struct hfi1.ko sdma_state current_state go_s99_running
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/dwarf/extract.hpp"
#include "src/dwarf/layout_table.hpp"
#include "src/hfi/layouts.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: dwarf-extract-struct <module.ko> <struct> <field> [<field>...] "
               "[-o out.h]\n"
               "       dwarf-extract-struct --ship-demo <version> <out.ko>\n"
               "       dwarf-extract-struct --dump <module.ko>\n");
  return 2;
}

/// The parsed debug info of the module binary at `path`; on failure,
/// prints why to stderr and returns nothing.
std::optional<pd::dwarf::DebugInfoView> load_debug_info(const std::string& path) {
  auto module = pd::dwarf::ModuleBinary::load(path);
  if (!module.ok()) {
    std::fprintf(stderr, "cannot load module binary %s\n", path.c_str());
    return std::nullopt;
  }
  auto view = module->debug_info();
  if (!view.ok()) {
    std::fprintf(stderr,
                 view.error() == pd::Errno::enoent ? "%s has no debug info sections\n"
                                                   : "malformed debug info in %s\n",
                 path.c_str());
    return std::nullopt;
  }
  return std::move(*view);
}

int dump_module(const std::string& path) {
  auto view = load_debug_info(path);
  if (!view) return 1;
  std::fputs(view->dump().c_str(), stdout);
  return 0;
}

int ship_demo(const std::string& version, const std::string& path) {
  const pd::dwarf::LayoutSpec& spec = pd::hfi::layout_spec();
  auto layouts = pd::dwarf::LayoutTable::for_version(spec, version);
  if (!layouts.ok()) {
    std::string known;
    for (const auto& r : spec.releases) known += (known.empty() ? "" : ", ") + r.version;
    std::fprintf(stderr, "unknown driver version '%s' (try %s)\n", version.c_str(),
                 known.c_str());
    return 1;
  }
  const pd::dwarf::ModuleBinary module = layouts->ship_module();
  if (!module.save(path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%s)\n", path.c_str(), module.version()->c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() >= 3 && args[0] == "--ship-demo") return ship_demo(args[1], args[2]);
  if (args.size() == 2 && args[0] == "--dump") return dump_module(args[1]);
  if (args.size() < 3) return usage();

  std::string out_path;
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == "-o") {
      out_path = args[i + 1];
      args.erase(args.begin() + static_cast<long>(i), args.begin() + static_cast<long>(i) + 2);
      break;
    }
  }
  if (args.size() < 3) return usage();

  const std::string& module_path = args[0];
  const std::string& struct_name = args[1];
  const std::vector<std::string> fields(args.begin() + 2, args.end());

  auto view = load_debug_info(module_path);
  if (!view) return 1;
  auto header = pd::dwarf::extract_struct_header(*view, struct_name, fields);
  if (!header.ok()) {
    std::fprintf(stderr, "extraction failed: struct '%s' or a requested field not found\n",
                 struct_name.c_str());
    return 1;
  }

  if (out_path.empty()) {
    std::fputs(header->c_str(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::trunc);
    out << *header;
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
