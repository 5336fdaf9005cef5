import pytest

from oneshot_kgc import synthetic
from oneshot_kgc.dataset import build_dataset, load_dataset
from oneshot_kgc.embeddings import export_vectors, train_embeddings
from oneshot_kgc.graph_store import build_neighbor_index, load_triples

SPLIT_COUNTS = (6, 2, 2)
SEED = 7
EMBED_DIM = 32


@pytest.fixture(scope="session")
def dump_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("synthetic") / "dump.tsv"
    synthetic.write_dump(str(path), synthetic.generate(seed=SEED))
    return str(path)


@pytest.fixture(scope="session")
def dataset_dir(tmp_path_factory, dump_path):
    out = tmp_path_factory.mktemp("dataset") / "ds"
    triples, vocab = load_triples(dump_path)
    build_dataset(str(out), triples, vocab, counts=SPLIT_COUNTS, seed=3)
    return str(out)


@pytest.fixture(scope="session")
def ds(dataset_dir):
    return load_dataset(dataset_dir)


@pytest.fixture(scope="session")
def graph(ds):
    return build_neighbor_index(ds.background, ds.vocab.n_entities, max_neighbors=50)


@pytest.fixture(scope="session")
def transe_table(ds):
    """Matcher-regime table: background triples only."""
    table, _ = train_embeddings(ds.background, ds.vocab.n_entities,
                                ds.vocab.n_relations, model="TransE",
                                dim=EMBED_DIM, epochs=60, lr=0.02, seed=1)
    return export_vectors(table)
