#include "ml/learner.hpp"

#include "ml/forest.hpp"
#include "ml/gam.hpp"
#include "ml/gbt.hpp"
#include "ml/io.hpp"
#include "ml/knn.hpp"
#include "ml/linreg.hpp"
#include "ml/median.hpp"
#include <istream>
#include <ostream>
#include <sstream>

#include "support/error.hpp"

namespace mpicp::ml {

std::vector<double> Regressor::predict(const Matrix& x) const {
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    out[i] = predict_one(x.row(i));
  }
  return out;
}

void save_regressor(std::ostream& os, const Regressor& model) {
  std::ostringstream payload;
  model.save(payload);
  os << "regressor-v2 " << model.name() << ' ';
  io::write_sealed(os, payload.str());
}

std::unique_ptr<Regressor> load_regressor(std::istream& is) {
  std::string tag;
  if (!(is >> tag)) {
    MPICP_RAISE_PARSE("model stream: missing regressor header");
  }
  if (tag == "regressor") {
    // Legacy v1 envelope (no checksum): still loadable so pre-existing
    // model banks survive the format bump.
    std::string name;
    if (!(is >> name)) {
      MPICP_RAISE_PARSE("model stream: missing regressor name");
    }
    auto model = make_regressor(name);
    model->load(is);
    return model;
  }
  MPICP_CHECK_PARSE(tag == "regressor-v2",
                    "model stream: missing regressor header (got '" + tag +
                        "')");
  std::string name;
  if (!(is >> name)) {
    MPICP_RAISE_PARSE("model stream: truncated regressor-v2 header");
  }
  std::istringstream payload(
      io::read_sealed(is, 1u << 30, "model stream: '" + name + "'"));
  auto model = make_regressor(name);
  model->load(payload);
  return model;
}

std::unique_ptr<Regressor> make_regressor(const std::string& name) {
  if (name == "xgboost") return std::make_unique<GradientBoostedTrees>();
  if (name == "knn") return std::make_unique<KnnRegressor>();
  if (name == "gam") return std::make_unique<GamRegressor>();
  if (name == "rf") return std::make_unique<RandomForest>();
  if (name == "linear") return std::make_unique<LinearRegressor>();
  if (name == "median") return std::make_unique<MedianRegressor>();
  MPICP_RAISE_ARG("unknown learner '" + name + "'");
}

}  // namespace mpicp::ml
